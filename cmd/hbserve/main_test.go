package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"headerbid"
)

func TestUsageErrorExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-access-log", "x"}, // the operator stack is gone
		{"-obs", "x"},
		{"-sites", "many"},
		{"-h"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("hbserve %v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}

// TestServesWorldUntilCancelled drives hbserve through run: it serves a
// 30-site world, answers an HB site's document and a partner endpoint
// routed by Host header, and exits 0 once its context is cancelled.
func TestServesWorldUntilCancelled(t *testing.T) {
	cfg := headerbid.DefaultWorldConfig(1)
	cfg.NumSites = 30
	site := headerbid.GenerateWorld(cfg).HBSites()[0]
	partner, ok := headerbid.Partners().BySlug(site.Partners[0])
	if !ok {
		t.Fatalf("site %s lists unknown partner %q", site.Domain, site.Partners[0])
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	lines := make(chan string, 64) // more than run prints, so the reader never blocks it
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-sites", "30", "-seed", "1", "-scale", "0.05"}, pw, &stderr)
		pw.Close()
	}()

	// run prints the address once the listener is up.
	const prefix = "ecosystem serving on "
	var out []string
	addr := ""
	for addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("hbserve exited %d before serving; stderr %q", <-done, stderr.String())
			}
			out = append(out, line)
			if rest, found := strings.CutPrefix(line, prefix); found {
				addr, _, _ = strings.Cut(rest, " ")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("hbserve printed no address; stdout %q", out)
		}
	}

	get := func(host, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = host
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s%s: %v", host, path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if status, body := get("www."+site.Domain, "/"); status != http.StatusOK || !strings.Contains(body, site.Domain) {
		t.Errorf("document of %s: status %d, body %.80q", site.Domain, status, body)
	}
	if status, _ := get(partner.Host, "/pixel"); status != http.StatusNoContent {
		t.Errorf("pixel on %s: status %d, want 204", partner.Host, status)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after cancellation, want 0; stderr %q", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hbserve did not return after cancellation")
	}
	for line := range lines {
		out = append(out, line)
	}
	if all := strings.Join(out, "\n"); !strings.Contains(all, site.Domain) {
		t.Errorf("the sites to try do not list %s:\n%s", site.Domain, all)
	}
	if !strings.HasSuffix(stderr.String(), "bye\n") {
		t.Errorf("stderr %q does not end the graceful shutdown with bye", stderr.String())
	}
}
