// Satellite coverage for the control-plane mounting points on the
// metrics endpoint: Handle (extra routes on the same mux) and Shutdown
// (graceful stop that waits for in-flight requests).
package nf_test

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"vignat/internal/nf"
)

func TestMetricsHandleAndShutdown(t *testing.T) {
	read := func() nf.Scrape { return nf.Scrape{Stats: nf.Stats{Processed: 5}} }
	m, err := nf.ServeMetrics("127.0.0.1:0", nf.MetricSource{Name: "shutdown-src", Read: read})
	if err != nil {
		t.Fatal(err)
	}

	// A mounted route serves alongside the built-ins.
	started := make(chan struct{})
	release := make(chan struct{})
	m.Handle("/control/v1/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/control/v1/slow" {
			close(started)
			<-release
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok")
	}))
	resp, err := http.Get("http://" + m.Addr() + "/control/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("mounted route: %d %q", resp.StatusCode, body)
	}

	// Shutdown must wait for the in-flight request, not kill it.
	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + m.Addr() + "/control/v1/slow")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = io.ErrUnexpectedEOF
			}
		}
		slowDone <- err
	}()
	<-started
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- m.Shutdown(ctx)
	}()
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned before the in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request was killed by Shutdown: %v", err)
	}

	// The listener is closed.
	if _, err := http.Get("http://" + m.Addr() + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after Shutdown")
	}
}
