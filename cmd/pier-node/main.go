// pier-node runs one real PIER node over TCP, as an operable daemon:
// an HTTP admin plane (REST + /metrics) for inspection, publishing,
// and querying, and graceful drain on SIGINT/SIGTERM (cancel live
// queries, leave the overlay handing soft state to a peer, close the
// transport). Its settings are its flags; `pier-node -h` lists them.
//
// Start the first node with no -join flag; point further nodes at any
// running one:
//
//	pier-node -listen 127.0.0.1:7001 -admin 127.0.0.1:7080
//	pier-node -listen 127.0.0.1:7002 -join 127.0.0.1:7001 -admin 127.0.0.1:7081
//
// then operate it over HTTP:
//
//	curl localhost:7080/api/status
//	curl localhost:7080/metrics
//	curl -X POST localhost:7080/api/tables -d '{"name":"fish","key":"name","cols":["name","size"]}'
//	curl -X POST localhost:7080/api/publish -d '{"table":"fish","values":["salmon",7]}'
//	curl -X POST localhost:7081/api/queries -d '{"sql":"SELECT name, size FROM fish","wait_ms":3000}'
//
// Daemon lifecycle events go to stderr as structured logs (log/slog);
// -log-format json switches them from logfmt-style text to JSON lines,
// with query ids carried as attributes.
//
// -debug mounts net/http/pprof under /debug/pprof/ on the admin
// listener. The admin plane is unauthenticated; pprof exposes heap and
// goroutine internals, so the flag is off by default and should stay
// off unless the admin address is loopback or otherwise trusted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pier"
	"pier/internal/dht/storage"
	"pier/internal/env"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stderr, sigs))
}

// defaultStats is -stats's default, and the index maintenance period
// when -stats 0 turns the catalog loop off.
const defaultStats = 10 * time.Second

// run is main with its inputs and outputs as parameters; it returns
// the exit code: 0 after -h or a graceful shutdown on a signal from
// sigs, 1 when the node cannot start or serve, 2 on a usage error.
func run(args []string, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("pier-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:0", "address to listen on")
	join := fs.String("join", "", "landmark node to join through (empty = new network)")
	adminAddr := fs.String("admin", "", "HTTP admin/metrics listen address (empty = admin plane off)")
	statsEvery := fs.Duration("stats", defaultStats,
		"statistics-catalog refresh and index maintenance interval (0 disables the catalog loop; indexes then tick every 10s)")
	joinTimeout := fs.Duration("join-timeout", 15*time.Second, "how long to wait for the overlay join")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second,
		"how long graceful shutdown waits for in-flight admin requests")
	logFormat := fs.String("log-format", "text", "daemon log format: text or json")
	debug := fs.Bool("debug", false,
		"mount net/http/pprof on the admin listener (unauthenticated; off by default)")
	quota := fs.Int64("quota", 0,
		"per-namespace soft-state byte quota (0 = unbounded); over-quota namespaces evict and throttle publishers")
	spillDir := fs.String("spill-dir", "",
		"directory for the disk-spill tier; quota evictions append to a compacting log there instead of being discarded")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(stderr, nil)
	default:
		fmt.Fprintf(stderr, "pier-node: log format %q is not text or json\n", *logFormat)
		return 1
	}
	logger := slog.New(handler)

	opts := pier.DefaultOptions()
	opts.Stats.Interval = *statsEvery
	// Without its maintenance tick an index never splits, so every range
	// walk would read one trie node: the index loop always runs.
	opts.Index.Interval = defaultStats
	if *statsEvery > 0 {
		opts.Index.Interval = *statsEvery
	}
	if *quota > 0 {
		opts.ProviderConfig.Quota = storage.QuotaConfig{DefaultQuota: *quota}
	}
	if *spillDir != "" {
		if *quota <= 0 {
			fmt.Fprintln(stderr, "pier-node: -spill-dir needs -quota; without one nothing ever spills")
			return 1
		}
		opts.SpillDir = *spillDir
	}
	node, err := pier.StartNode(*listen, env.Addr(*join), time.Now().UnixNano(), opts)
	if err != nil {
		logger.Error("node start failed", "err", err)
		return 1
	}
	if *join != "" {
		if err := node.WaitJoin(*joinTimeout); err != nil {
			logger.Error("overlay join failed", "err", err)
			node.Close()
			return 1
		}
	}
	logger.Info("node up", "addr", string(node.Addr()), "join", *join)

	var adminSrv *http.Server
	adminErr := make(chan error, 1)
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			logger.Error("admin listen failed", "err", err)
			node.Close()
			return 1
		}
		adminSrv = &http.Server{Handler: adminMux(node, *debug)}
		// The bound address, so that a ":0" port is discoverable.
		logger.Info("admin plane listening", "url", "http://"+ln.Addr().String(), "pprof", *debug)
		go func() {
			if err := adminSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				adminErr <- err
			}
		}()
	}

	select {
	case sig := <-sigs:
		logger.Info("signal received, shutting down", "signal", sig.String())
	case err := <-adminErr:
		logger.Error("admin server failed", "err", err)
		node.Close()
		return 1
	}
	shutdown(node, adminSrv, *drainTimeout, logger)
	return 0
}

// adminMux wraps the admin plane, optionally mounting net/http/pprof
// under /debug/pprof/ when -debug is set. The pprof handlers are
// registered explicitly (not via the package's init side effect on
// http.DefaultServeMux) so a non-debug daemon exposes nothing.
func adminMux(node *pier.RealNode, debug bool) http.Handler {
	api := pier.AdminHandler(node)
	if !debug {
		return api
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)
	return mux
}

// shutdown drains the node gracefully: stop accepting admin requests
// and let in-flight query streams finish, cancel the queries still
// live on this node, hand the zone and soft state to a peer with
// Leave, and close the transport.
func shutdown(node *pier.RealNode, adminSrv *http.Server, drain time.Duration, logger *slog.Logger) {
	if adminSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		if err := adminSrv.Shutdown(ctx); err != nil {
			adminSrv.Close()
		}
		cancel()
	}
	cancelled := 0
	for _, q := range node.LiveQueries() {
		if q.Initiator && node.Cancel(q.ID) {
			logger.Info("cancelled live query", "query_id", q.ID)
			cancelled++
		}
	}
	logger.Info("drained live queries", "cancelled", cancelled)
	node.Leave()
	// Leave queues zone-transfer puts to a peer; give the writer
	// goroutines a moment to flush before the sockets close.
	time.Sleep(200 * time.Millisecond)
	node.Close()
	logger.Info("left overlay, shutdown complete")
}
