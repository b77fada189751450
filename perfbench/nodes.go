package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"starperf/client"
	"starperf/internal/cluster"
	"starperf/internal/journal"
	"starperf/internal/server"
)

// workers is every node's job-pool size, fixed so the figures do not
// depend on the host's CPU count.
const workers = 2

// sweepPeriod paces every job poll: the open-loop poller's sweeps and
// the closed-loop callers' waits. It stays small beside a job's ~8 ms.
const sweepPeriod = 2 * time.Millisecond

// node is one in-process starperfd: server.New behind a real loopback
// listener.
type node struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	jnl    *journal.Journal
	ring   *cluster.Ring
	base   string
}

// env is one workload's system under test plus the load side's HTTP
// plumbing.
type env struct {
	nodes     []*node
	dir       string // per-setup temp dir holding the journal
	transport *http.Transport
	httpc     *http.Client // load-side client, through the recorder
	clients   []*client.Client
	plain     *http.Client // metricsz reads; not load
}

// startEnv builds nodes nodes (a consistent-hash ring when more than
// one) with a journal on a fresh temp dir under tmpRoot when durable
// is set.
func startEnv(ctx context.Context, nodes int, durable bool, tmpRoot string, rec *recorder) (e *env, err error) {
	e = &env{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if durable {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return e, fmt.Errorf("creating temp root: %w", err)
		}
		if e.dir, err = os.MkdirTemp(tmpRoot, "journal-"); err != nil {
			return e, fmt.Errorf("creating journal dir: %w", err)
		}
	}
	lns := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return e, fmt.Errorf("listening on loopback: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i, ln := range lns {
		n := &node{base: "http://" + addrs[i], served: make(chan error, 1)}
		if err := n.build(addrs, i, e.dir); err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return e, err
		}
		n.hs = &http.Server{Handler: n.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func(ln net.Listener) { n.served <- n.hs.Serve(ln) }(ln)
		e.nodes = append(e.nodes, n)
	}

	e.transport = &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}
	e.httpc = &http.Client{Transport: rec.wrap(e.transport)}
	e.plain = &http.Client{Transport: e.transport}
	for _, n := range e.nodes {
		c, err := client.New(client.Config{BaseURL: n.base, HTTPClient: e.httpc, MaxAttempts: 1, PollInterval: sweepPeriod})
		if err != nil {
			return e, err
		}
		if err := c.Health(ctx); err != nil {
			return e, fmt.Errorf("node %s not healthy: %w", n.base, err)
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// build makes node i of the member list addrs.
func (n *node) build(addrs []string, i int, dir string) error {
	cfg := server.Config{Workers: workers}
	if len(addrs) > 1 {
		peers := append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
		ring, err := cluster.New(cluster.Config{Self: addrs[i], Peers: peers})
		if err != nil {
			return err
		}
		n.ring, cfg.Ring = ring, ring
	}
	var rec *journal.Recovery
	if dir != "" {
		jnl, r, err := journal.Open(journal.Options{Dir: fmt.Sprintf("%s/node%d", dir, i)})
		if err != nil {
			return fmt.Errorf("opening journal: %w", err)
		}
		n.jnl, rec, cfg.Journal = jnl, r, jnl
	}
	srv, err := server.New(cfg)
	if err != nil {
		if n.jnl != nil {
			n.jnl.Close()
		}
		return err
	}
	n.srv = srv
	if rec != nil {
		srv.Recover(rec)
	}
	return nil
}

// close drains and stops every node, closes journals and removes the
// temp dir. It waits for every serving goroutine to return.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, n := range e.nodes {
		if err := n.hs.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		if err := n.srv.Close(ctx); err != nil {
			errs = append(errs, err)
		}
		if n.jnl != nil {
			if err := n.jnl.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	e.nodes = nil
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	if e.dir != "" {
		if err := os.RemoveAll(e.dir); err != nil {
			errs = append(errs, err)
		}
		e.dir = ""
	}
	return errors.Join(errs...)
}

// metricsz reads every node's GET /metricsz.
func (e *env) metricsz(ctx context.Context) ([]server.Metricsz, error) {
	out := make([]server.Metricsz, len(e.nodes))
	for i, n := range e.nodes {
		if err := getJSON(ctx, e.plain, n.base+"/metricsz", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// getJSON decodes the 200 body of GET url into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
