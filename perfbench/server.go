package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/evolving-olap/idd/internal/service"
)

// server is an in-process iddserver on a loopback port plus the only
// HTTP client the benchmark uses: at most GOMAXPROCS connections, so the
// load comes from one process no wider than the machine.
type server struct {
	base   string
	srv    *service.Server
	http   *http.Server
	client *http.Client
	done   chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := service.New(service.Config{
		// Overload shows as latency, never as refusals.
		QueueCap:  1 << 14,
		MaxBudget: 30 * time.Second,
	})
	conns := runtime.GOMAXPROCS(0)
	s := &server{
		base: "http://" + ln.Addr().String(),
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the listener and client connections, drains the manager
// and waits for the serving goroutine to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx)
	s.client.CloseIdleConnections()
	s.srv.Shutdown(ctx)
	<-s.done
}

// do sends one request and decodes a 2xx JSON answer into out.
func (s *server) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

func (s *server) metrics() (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	err := s.do("GET", "/metrics", nil, &m)
	return m, err
}

// procSampler tracks heap peaks and GC cycles while a phase runs,
// through runtime/metrics, which reads without stopping the world.
type procSampler struct {
	stop, done chan struct{}
	// liveSum/samples average the heap the last GC found reachable.
	// Unlike a peak, the average does not hinge on when single
	// collections happen. objects is the peak of heap objects
	// including garbage not yet swept.
	liveSum, samples uint64
	objects, gcs     uint64
}

// meanLiveMB is the average live heap over the sampled phase.
func (p *procSampler) meanLiveMB() float64 {
	if p.samples == 0 {
		return 0
	}
	return mb(p.liveSum / p.samples)
}

var samplerMetrics = []string{"/gc/heap/live:bytes", "/memory/classes/heap/objects:bytes", "/gc/cycles/total:gc-cycles"}

func startSampler() *procSampler {
	p := &procSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := make([]metrics.Sample, len(samplerMetrics))
	for i, name := range samplerMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	gc0 := s[2].Value.Uint64()
	go func() {
		defer close(p.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			p.liveSum += s[0].Value.Uint64()
			p.samples++
			p.objects = max(p.objects, s[1].Value.Uint64())
			p.gcs = s[2].Value.Uint64() - gc0
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops sampling.
func (p *procSampler) finish() {
	close(p.stop)
	<-p.done
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
