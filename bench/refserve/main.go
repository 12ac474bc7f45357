// Command refserve is the serve workload's reference server. It starts,
// listens and drains as cmd/dqserve does, with the same HTTP server
// settings, and answers the requests the benchmark sends with fixed
// answers of the same shape, doing none of dqserve's work. The benchmark
// times it alternately with dqserve, cold starts against cold starts and
// requests against requests, so that what the shared host charges for
// starting a Go server and for loopback HTTP at that moment can be
// divided out. Like dqserve it prints "listening on ADDR" once ready to
// accept and "drained" after a clean SIGTERM shutdown.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "refserve:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("refserve: listening on %s\n", ln.Addr())

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decide", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"site":1,"mode":"policy","policy":"LERT"}`+"\n")
	})
	mux.HandleFunc("/v1/report", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready\n")
	})
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("refserve: drained")
	return nil
}
