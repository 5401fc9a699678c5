// Command hbserve hosts a generated ecosystem over real HTTP on the
// loopback interface, so the protocol endpoints can be poked by hand:
//
//	hbserve -sites 50 -seed 1
//	curl -H 'Host: www.site00002.example' http://127.0.0.1:<port>/
//	curl -H 'Host: hb.doubleclick.net' \
//	    'http://127.0.0.1:<port>/ssp/auction?site=site00002.example&slots=a|300x250'
//
// It prints a few HB-enabled sites to try and blocks until interrupted,
// then shuts down gracefully (in-flight requests get a drain window).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"

	"headerbid"
	"headerbid/internal/livenet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is hbserve over the given arguments and output streams, serving
// until ctx is done. It returns the exit status: 0 after a graceful
// shutdown, 1 when the listener fails, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sites = fs.Int("sites", 50, "sites in the generated world")
		seed  = fs.Int64("seed", 1, "world seed")
		scale = fs.Float64("scale", 1.0, "service-time scale (use <1 to speed responses up)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hbserve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	logger := log.New(stderr, "hbserve: ", 0)

	cfg := headerbid.DefaultWorldConfig(*seed)
	cfg.NumSites = *sites
	world := headerbid.GenerateWorld(cfg)

	srv, err := livenet.Serve(world, *scale)
	if err != nil {
		logger.Print(err)
		return 1
	}

	fmt.Fprintf(stdout, "ecosystem serving on %s (route by Host header)\n", srv.Addr())
	fmt.Fprintln(stdout, "HB-enabled sites to try:")
	hbSites := world.HBSites()
	for i, s := range hbSites {
		if i == 8 {
			break
		}
		fmt.Fprintf(stdout, "  %-22s facet=%-14s partners=%v\n", s.Domain, s.Facet.Short(), s.Partners)
	}
	if len(hbSites) > 0 {
		fmt.Fprintf(stdout, "\nexample:\n  curl -H 'Host: www.%s' http://%s/\n", hbSites[0].Domain, srv.Addr())
	}

	<-ctx.Done()

	// Graceful drain: Close delegates to http.Server.Shutdown with a
	// deadline, so in-flight requests finish before the listener dies.
	logger.Print("shutting down")
	if err := srv.Close(); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	logger.Print("bye")
	return 0
}
