// Package livenet runs the generated ecosystem over a real HTTP stack on
// the loopback interface: every virtual host (partner bid endpoints,
// publisher ad servers, CDNs) is served by a net/http server, and a
// browser.Env implementation routes page fetches to it while preserving
// the logical URLs the detector inspects. This is the integration-proof
// environment: the same wrapper, detector and crawl logic that runs on
// the virtual clock runs here over actual sockets.
package livenet

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"headerbid/internal/sitegen"
	"headerbid/internal/urlkit"
	"headerbid/internal/webreq"
)

// Server hosts the world over one loopback HTTP listener, routing by Host
// header.
type Server struct {
	World *World
	eco   *sitegen.Ecosystem

	listener net.Listener
	httpSrv  *http.Server
	// ServiceScale multiplies handler service times; use <1 to speed up
	// integration tests (latency semantics compress proportionally).
	ServiceScale float64
}

// World aliases sitegen.World for readability at call sites.
type World = sitegen.World

// Serve starts serving a world on 127.0.0.1:0 and returns the server.
func Serve(w *World, serviceScale float64) (*Server, error) {
	if serviceScale <= 0 {
		serviceScale = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("livenet: %w", err)
	}
	s := &Server{
		World:        w,
		eco:          sitegen.NewEcosystem(w),
		listener:     ln,
		ServiceScale: serviceScale,
	}
	s.httpSrv = &http.Server{Handler: http.HandlerFunc(s.route)}
	go s.httpSrv.Serve(ln)
	return s, nil
}

// Addr returns the loopback address all hosts resolve to.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.httpSrv.Shutdown(ctx)
}

// route dispatches by Host header to the ecosystem handlers, then sleeps
// the (scaled) service time before answering — real latency on a real
// socket.
func (s *Server) route(rw http.ResponseWriter, req *http.Request) {
	host := req.Host
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	domain := urlkit.RegistrableDomain(host)

	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(io.LimitReader(req.Body, 1<<22))
	}
	wr := &webreq.Request{
		URL:    "https://" + host + req.URL.RequestURI(),
		Method: webreq.Method(req.Method),
		Sent:   time.Now(), //hbvet:allow detwall livenet serves real HTTP; request timestamps are genuinely wall-clock
	}
	wr.SetBody(string(body))

	status, respBody, service := s.dispatch(domain, wr)
	if service > 0 {
		//hbvet:allow detwall simulated service latency over a real socket must burn real time
		time.Sleep(time.Duration(float64(service) * s.ServiceScale))
	}
	rw.WriteHeader(status)
	io.WriteString(rw, respBody)
}

func (s *Server) dispatch(domain string, wr *webreq.Request) (int, string, time.Duration) {
	if p, ok := s.World.Registry.ByURL(wr.URL); ok {
		return s.eco.HandlePartner(p, wr)
	}
	if site, ok := s.World.SiteByDomain(domain); ok {
		return s.eco.HandleSite(site, wr)
	}
	switch domain {
	case sitegen.CreativeHost:
		return s.eco.HandleCreative(wr)
	default:
		if strings.Contains(domain, "static.example") ||
			strings.Contains(domain, "prebid.example") ||
			strings.Contains(domain, "pubfood.example") ||
			strings.Contains(domain, "googletagservices.com") {
			return s.eco.HandleCDN(wr)
		}
	}
	return 404, "unknown host " + domain, 0
}

// Env is a browser.Env over real time, a single-goroutine event loop, and
// an http.Client whose dialer routes every hostname to the live server.
type Env struct {
	server *Server
	client *http.Client

	loopCh  chan func()
	doneCh  chan struct{}
	stopped sync.Once
}

// NewEnv creates (and starts) a page environment bound to the server.
func NewEnv(s *Server) *Env {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			// Every logical host resolves to the loopback server.
			return dialer.DialContext(ctx, network, s.Addr())
		},
		MaxIdleConnsPerHost: 64,
	}
	e := &Env{
		server: s,
		client: &http.Client{Transport: transport, Timeout: 90 * time.Second},
		loopCh: make(chan func(), 1024),
		doneCh: make(chan struct{}),
	}
	go e.loop()
	return e
}

// loop is the single logical thread all callbacks run on.
func (e *Env) loop() {
	for {
		select {
		case fn := <-e.loopCh:
			fn()
		case <-e.doneCh:
			return
		}
	}
}

// Close stops the event loop.
func (e *Env) Close() { e.stopped.Do(func() { close(e.doneCh) }) }

// Now returns wall-clock time.
//
//hbvet:allow detwall livenet IS the wall-clock browser.Env: the integration proof that the pipeline survives real time
func (e *Env) Now() time.Time { return time.Now() }

// Post schedules fn on the event loop.
func (e *Env) Post(fn func()) {
	select {
	case e.loopCh <- fn:
	case <-e.doneCh:
	}
}

// After schedules fn on the event loop after d of real time.
func (e *Env) After(d time.Duration, fn func()) {
	//hbvet:allow detwall real timers are the live analogue of the scheduler's virtual After
	time.AfterFunc(d, func() { e.Post(fn) })
}

// Fetch performs the request over real HTTP. The logical URL keeps its
// virtual hostname (what the detector matches on); only the socket dials
// the loopback server. HTTPS URLs are fetched as plain HTTP — transport
// security is irrelevant to the measurement semantics. A POST's body is
// built here, on the event loop, where its request lives: the real
// socket is its one reader of bytes.
func (e *Env) Fetch(req *webreq.Request, cb func(*webreq.Response)) {
	body := ""
	if req.Method == webreq.POST {
		body = req.Body()
	}
	go func() {
		url := strings.Replace(req.URL, "https://", "http://", 1)
		var httpReq *http.Request
		var err error
		if req.Method == webreq.POST {
			httpReq, err = http.NewRequest("POST", url, strings.NewReader(body))
		} else {
			httpReq, err = http.NewRequest(string(req.Method), url, nil)
		}
		if err != nil {
			e.Post(func() { cb(&webreq.Response{RequestID: req.ID, Err: err.Error()}) })
			return
		}
		resp, err := e.client.Do(httpReq)
		if err != nil {
			e.Post(func() { cb(&webreq.Response{RequestID: req.ID, Err: err.Error()}) })
			return
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		resp.Body.Close()
		e.Post(func() {
			cb(&webreq.Response{RequestID: req.ID, Status: resp.StatusCode, Body: string(body)})
		})
	}()
}

// WaitSettled blocks until the page's pending request count stays at zero
// for quiet, or deadline passes. It is the live analogue of running the
// virtual clock forward.
func WaitSettled(pending func() int, quiet, deadline time.Duration) bool {
	//hbvet:allow detwall polling a live HTTP stack for quiescence is inherently wall-clock
	end := time.Now().Add(deadline)
	quietStart := time.Time{}
	//hbvet:allow detwall wall-clock deadline loop over a real network
	for time.Now().Before(end) {
		if pending() == 0 {
			if quietStart.IsZero() {
				//hbvet:allow detwall wall-clock quiet-window tracking
				quietStart = time.Now()
			} else if time.Since(quietStart) >= quiet { //hbvet:allow detwall real elapsed time in the live quiet-window check
				return true
			}
		} else {
			quietStart = time.Time{}
		}
		//hbvet:allow detwall poll interval between live pending-count samples
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
