// pier-node runs one real PIER node over TCP, as an operable daemon:
// an HTTP admin plane (REST + /metrics) for inspection, publishing,
// and querying, a JSON config file with flag overrides, and graceful
// drain on SIGINT/SIGTERM (cancel live queries, leave the overlay
// handing soft state to a peer, close the transport).
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
// The interactive shell of earlier releases is behind -interactive:
//
//	table <name> <keycol> <col> [col...]   register a schema
//	publish <table> <val> [val...]         publish a tuple (key = first col)
//	sql <SELECT ...>                       run a query, print results
//	sql EXPLAIN TRACE <SELECT ...>         run it traced, print the span tree
//	sql CREATE INDEX <n> ON <t> (<col>)    build a PHT range index
//	stats [table]                          node counters (the /api/status struct)
//	info                                   node status (same struct)
//	quit
//
// Daemon lifecycle events go to stderr as structured logs (log/slog);
// -log-format json switches them from logfmt-style text to JSON lines,
// with query ids carried as attributes. Shell output stays on stdout.
//
// -debug mounts net/http/pprof under /debug/pprof/ on the admin
// listener. The admin plane is unauthenticated; pprof exposes heap and
// goroutine internals, so the flag is off by default and should stay
// off unless the admin address is loopback or otherwise trusted.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/sql"
)

// config is the daemon's effective configuration: defaults, overlaid
// by the -config file, overlaid by explicitly set flags.
type config struct {
	Listen        string
	Join          string
	Admin         string
	Lifetime      time.Duration
	Wait          time.Duration
	StatsInterval time.Duration
	JoinTimeout   time.Duration
	DrainTimeout  time.Duration
	LogFormat     string
	Debug         bool
	Quota         int64
	SpillDir      string
}

func defaultConfig() config {
	return config{
		Listen:        "127.0.0.1:0",
		Lifetime:      10 * time.Minute,
		Wait:          5 * time.Second,
		StatsInterval: 10 * time.Second,
		JoinTimeout:   15 * time.Second,
		DrainTimeout:  10 * time.Second,
		LogFormat:     "text",
	}
}

// fileConfig is the JSON shape of a -config file; durations are
// strings in time.ParseDuration syntax. Every field is optional.
type fileConfig struct {
	Listen        *string `json:"listen"`
	Join          *string `json:"join"`
	Admin         *string `json:"admin"`
	Lifetime      *string `json:"lifetime"`
	Wait          *string `json:"wait"`
	StatsInterval *string `json:"stats_interval"`
	JoinTimeout   *string `json:"join_timeout"`
	DrainTimeout  *string `json:"drain_timeout"`
	LogFormat     *string `json:"log_format"`
	Debug         *bool   `json:"debug"`
	Quota         *int64  `json:"quota"`
	SpillDir      *string `json:"spill_dir"`
}

func loadConfigFile(path string, cfg *config) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var fc fileConfig
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	setStr := func(dst *string, src *string) {
		if src != nil {
			*dst = *src
		}
	}
	setDur := func(dst *time.Duration, src *string, field string) error {
		if src == nil {
			return nil
		}
		d, err := time.ParseDuration(*src)
		if err != nil {
			return fmt.Errorf("%s: field %s: %w", path, field, err)
		}
		*dst = d
		return nil
	}
	setStr(&cfg.Listen, fc.Listen)
	setStr(&cfg.Join, fc.Join)
	setStr(&cfg.Admin, fc.Admin)
	setStr(&cfg.LogFormat, fc.LogFormat)
	setStr(&cfg.SpillDir, fc.SpillDir)
	if fc.Debug != nil {
		cfg.Debug = *fc.Debug
	}
	if fc.Quota != nil {
		cfg.Quota = *fc.Quota
	}
	for _, f := range []struct {
		dst   *time.Duration
		src   *string
		field string
	}{
		{&cfg.Lifetime, fc.Lifetime, "lifetime"},
		{&cfg.Wait, fc.Wait, "wait"},
		{&cfg.StatsInterval, fc.StatsInterval, "stats_interval"},
		{&cfg.JoinTimeout, fc.JoinTimeout, "join_timeout"},
		{&cfg.DrainTimeout, fc.DrainTimeout, "drain_timeout"},
	} {
		if err := setDur(f.dst, f.src, f.field); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	def := defaultConfig()
	listen := flag.String("listen", def.Listen, "address to listen on")
	join := flag.String("join", "", "landmark node to join through (empty = new network)")
	adminAddr := flag.String("admin", "", "HTTP admin/metrics listen address (empty = admin plane off)")
	configPath := flag.String("config", "", "JSON config file; explicitly set flags override it")
	interactive := flag.Bool("interactive", false, "run the interactive shell on stdin")
	lifetime := flag.Duration("lifetime", def.Lifetime, "soft-state lifetime of published tuples")
	wait := flag.Duration("wait", def.Wait, "how long shell queries collect results")
	statsEvery := flag.Duration("stats", def.StatsInterval,
		"statistics-catalog refresh interval (0 disables the maintenance loop)")
	joinTimeout := flag.Duration("join-timeout", def.JoinTimeout, "how long to wait for the overlay join")
	drainTimeout := flag.Duration("drain-timeout", def.DrainTimeout,
		"how long graceful shutdown waits for in-flight admin requests")
	logFormat := flag.String("log-format", def.LogFormat, "daemon log format: text or json")
	debug := flag.Bool("debug", def.Debug,
		"mount net/http/pprof on the admin listener (unauthenticated; off by default)")
	quota := flag.Int64("quota", def.Quota,
		"per-namespace soft-state byte quota (0 = unbounded); over-quota namespaces evict and throttle publishers")
	spillDir := flag.String("spill-dir", def.SpillDir,
		"directory for the disk-spill tier; quota evictions append to a compacting log there instead of being discarded")
	flag.Parse()

	cfg := def
	if *configPath != "" {
		if err := loadConfigFile(*configPath, &cfg); err != nil {
			fmt.Fprintln(os.Stderr, "config:", err)
			os.Exit(1)
		}
	}
	// Explicitly set flags win over the config file.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "listen":
			cfg.Listen = *listen
		case "join":
			cfg.Join = *join
		case "admin":
			cfg.Admin = *adminAddr
		case "lifetime":
			cfg.Lifetime = *lifetime
		case "wait":
			cfg.Wait = *wait
		case "stats":
			cfg.StatsInterval = *statsEvery
		case "join-timeout":
			cfg.JoinTimeout = *joinTimeout
		case "drain-timeout":
			cfg.DrainTimeout = *drainTimeout
		case "log-format":
			cfg.LogFormat = *logFormat
		case "debug":
			cfg.Debug = *debug
		case "quota":
			cfg.Quota = *quota
		case "spill-dir":
			cfg.SpillDir = *spillDir
		}
	})

	var handler slog.Handler
	switch cfg.LogFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "config: log format %q is not text or json\n", cfg.LogFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)

	opts := pier.DefaultOptions()
	opts.Stats.Interval = cfg.StatsInterval
	if cfg.Quota > 0 {
		opts.ProviderConfig.Quota = storage.QuotaConfig{DefaultQuota: cfg.Quota}
	}
	if cfg.SpillDir != "" {
		if cfg.Quota <= 0 {
			fmt.Fprintln(os.Stderr, "config: -spill-dir needs -quota; without one nothing ever spills")
			os.Exit(1)
		}
		opts.SpillDir = cfg.SpillDir
	}
	node, err := pier.StartNode(cfg.Listen, env.Addr(cfg.Join), time.Now().UnixNano(), opts)
	if err != nil {
		logger.Error("node start failed", "err", err)
		os.Exit(1)
	}
	if cfg.Join != "" {
		if err := node.WaitJoin(cfg.JoinTimeout); err != nil {
			logger.Error("overlay join failed", "err", err)
			node.Close()
			os.Exit(1)
		}
	}
	logger.Info("node up", "addr", string(node.Addr()), "join", cfg.Join)

	var adminSrv *http.Server
	adminErr := make(chan error, 1)
	if cfg.Admin != "" {
		adminSrv = &http.Server{Addr: cfg.Admin, Handler: adminMux(node, cfg.Debug)}
		go func() {
			logger.Info("admin plane listening", "url", "http://"+cfg.Admin, "pprof", cfg.Debug)
			if err := adminSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				adminErr <- err
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	shellDone := make(chan struct{})
	if *interactive {
		go func() {
			defer close(shellDone)
			runShell(node, cfg.Lifetime, cfg.Wait)
		}()
	}

	select {
	case sig := <-sigs:
		logger.Info("signal received, shutting down", "signal", sig.String())
	case <-shellDone:
		logger.Info("shell exited, shutting down")
	case err := <-adminErr:
		logger.Error("admin server failed", "err", err)
		node.Close()
		os.Exit(1)
	}
	shutdown(node, adminSrv, cfg.DrainTimeout, logger)
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

// runShell is the interactive operator console; it returns on EOF or
// quit, and the caller runs the normal graceful shutdown.
func runShell(node *pier.RealNode, lifetime, wait time.Duration) {
	cat := pier.Catalog{}
	var iid atomic.Int64
	iid.Store(time.Now().UnixNano())
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		switch {
		case line == "":
		case line == "quit" || line == "exit":
			return
		case line == "info":
			printInfo(node.Snapshot())
		case fields[0] == "table" && len(fields) >= 4:
			name, key := fields[1], fields[2]
			t := pier.SQLTable{Name: name, Cols: fields[3:], Key: key}
			cat[name] = t
			// Also into the DHT catalog, so the admin plane and remote
			// QuerySQL planners see the schema.
			node.RegisterTable(t, 0)
			fmt.Printf("registered %s(%s) key=%s\n", name, strings.Join(fields[3:], ","), key)
		case fields[0] == "publish" && len(fields) >= 3:
			table := fields[1]
			tb, ok := cat[table]
			if !ok {
				fmt.Println("unknown table; register with `table` first")
				break
			}
			if len(fields)-2 != len(tb.Cols) {
				fmt.Printf("%s takes %d columns\n", table, len(tb.Cols))
				break
			}
			vals := make([]pier.Value, 0, len(tb.Cols))
			for _, f := range fields[2:] {
				vals = append(vals, parseVal(f))
			}
			rid := core.ValueString(vals[tb.Col(tb.Key)])
			node.Publish(table, rid, iid.Add(1), &pier.Tuple{Rel: table, Vals: vals}, lifetime)
			fmt.Printf("published %s/%s\n", table, rid)
		case fields[0] == "sql":
			runSQL(node, cat, strings.TrimSpace(strings.TrimPrefix(line, "sql")), wait)
		case fields[0] == "stats":
			showStats(node, fields[1:])
		default:
			fmt.Println("commands: table, publish, sql, stats, info, quit")
		}
		fmt.Print("> ")
	}
}

// printInfo renders the status slice of the snapshot — the same struct
// GET /api/status serves.
func printInfo(s pier.Snapshot) {
	fmt.Printf("addr=%s ready=%v uptime=%.0fs neighbors=%d overlay≈%d stored-items=%d live-queries=%d/%d\n",
		s.Addr, s.Ready, s.UptimeSeconds, len(s.Neighbors), s.OverlayNodes,
		s.StoredItems, s.OpenCollectors, s.ActiveExecs)
}

// showStats prints the snapshot's counter families and — given a table
// name — the catalog's rolled-up statistics for it.
func showStats(node *pier.RealNode, args []string) {
	s := node.Snapshot()
	fmt.Printf("deployment: nodes≈%d hop=%.1fms lookup-hops=%.2f cached-stats-tables=%d\n",
		s.OverlayNodes, s.HopLatencyMS, s.LookupHops, s.CachedStatsTables)
	fmt.Printf("queries: collectors=%d executors=%d result-batches=%d result-tuples=%d credit-grants=%d stalls=%d\n",
		s.OpenCollectors, s.ActiveExecs, s.Query.ResultBatches, s.Query.ResultTuples,
		s.Query.CreditGrants, s.Query.CreditStalls)
	fmt.Printf("indexes: defs=%d scans=%d visits=%d\n", len(s.Indexes), s.IndexScans, s.IndexVisits)
	if s.Transport != nil {
		fmt.Printf("link: frames=%d batches=%d bytes=%d recv-frames=%d recv-bytes=%d drops=%d\n",
			s.Transport.FramesSent, s.Transport.BatchesSent, s.Transport.BytesSent,
			s.Transport.FramesRecv, s.Transport.BytesRecv, s.Transport.Drops)
	}
	if len(args) == 0 {
		return
	}
	table := args[0]
	done := make(chan struct{})
	node.Do(func() {
		node.Stats().Fetch(table, func(ts pier.TableStats, ok bool) {
			if !ok {
				fmt.Printf("%s: no statistics in the catalog (yet)\n", table)
			} else {
				fmt.Printf("%s: tuples=%.0f avg-bytes=%.0f distinct-keys≈%.0f\n",
					table, ts.Tuples, ts.TupleBytes, ts.DistinctJoinKeys)
			}
			close(done)
		})
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fmt.Println("stats fetch timed out")
	}
}

func parseVal(s string) pier.Value {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

func runSQL(node *pier.RealNode, cat pier.Catalog, src string, wait time.Duration) {
	st, err := sql.ParseStatement(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, isDDL := st.(*sql.CreateIndexStmt); isDDL {
		// CREATE INDEX name ON table (col): announced deployment-wide;
		// the local catalog picks up the index so subsequent sargable
		// queries plan index scans.
		if err := node.Exec(src, cat); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("index created")
		return
	}
	_, explain := st.(*sql.ExplainStmt)
	plan, err := pier.ParseSQL(src, cat)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	results := make(chan *core.Tuple, 1024)
	id, err := node.Query(plan, func(t *core.Tuple, _ int) {
		select {
		case results <- t:
		default:
		}
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if plan.AutoStrategy && len(plan.Tables) == 2 {
		// Query resolved the strategy on the event loop (catalog
		// choice, or the default if the catalog is cold).
		fmt.Printf("(strategy: %v)\n", plan.Strategy)
	}
	if len(plan.Tables) == 1 && plan.Tables[0].IndexScan != nil {
		// Still set after Query: the access choice kept the index.
		fmt.Printf("(access: %s)\n", plan.Tables[0].IndexScan)
	}
	deadline := time.After(wait)
	n := 0
	for {
		select {
		case t := <-results:
			n++
			fmt.Printf("  %s\n", t)
		case <-deadline:
			node.Cancel(id)
			fmt.Printf("(%d rows)\n", n)
			if explain {
				// Cancel closed the collector and retained the finished
				// trace; print the assembled span tree.
				if tr, ok := node.Trace(id); ok {
					fmt.Print(tr.RenderString())
				} else {
					fmt.Println("(no trace retained)")
				}
			}
			return
		}
	}
}
