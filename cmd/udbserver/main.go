// Command udbserver serves a live uncertain-object store over TCP,
// speaking the pipelined RESP-style protocol documented in
// docs/PROTOCOL.md: one-shot probabilistic queries (KNN, RKNN, TOPKNN,
// INVRANK, BATCH), ingest (INSERT/UPDATE/DELETE) and durable
// continuous-query push channels (SUBSCRIBE/RESUME).
//
// Usage:
//
//	udbserver -addr :7654                          # volatile in-memory store
//	udbserver -addr :7654 -synthetic 10000         # preloaded synthetic data
//	udbserver -addr :7654 -dir /var/lib/udb        # durable store (WAL + checkpoints)
//	udbserver -addr :7654 -dir /var/lib/udb -shards 8 -sync background
//
// With -dir the store journals every commit and recovers
// bit-identically on restart; the subscription cursor lives at
// dir/cursor, so named subscriptions survive restarts too (RESUME
// returns a coalesced delta against the durable cursor). Without -dir
// everything is in memory and named subscriptions are refused.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// subscription sessions drain their retained tails, every client gets
// a terminal `>... end closed` push, and the store (if durable) is
// checkpointed on close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"probprune/internal/core"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
	"probprune/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":7654", "TCP listen address")
		dir        = flag.String("dir", "", "durable store directory (empty: volatile in-memory store)")
		shards     = flag.Int("shards", 1, "shard count (with -dir, must match a store already there; every count keeps one journal in -dir)")
		sync       = flag.String("sync", "os", "fsync policy for durable commits: os, always, background")
		ckptEvery  = flag.Int("checkpoint-every", 4096, "auto-checkpoint after this many journal records (durable only)")
		synthetic  = flag.Int("synthetic", 0, "preload N synthetic objects (volatile or fresh durable store)")
		dataset    = flag.String("db", "", "preload a udbgen dataset file (volatile or fresh durable store)")
		iterations = flag.Int("iterations", 3, "max refinement iterations per query")
		retain     = flag.Int("retain", 0, "per-subscription retained-event ring (resume window); 0: default 8192")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics (JSON or ?format=prom), /events and /debug/pprof on this address (empty: off)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
		slowQuery  = flag.Duration("slow-query", 0, "flight-recorder slow-query capture threshold (0: off)")
		events     = flag.Int("events", 0, "flight-recorder ring capacity; 0: default 1024")
	)
	flag.Parse()
	if err := run(*addr, *dir, *shards, *sync, *ckptEvery, *synthetic, *dataset, *iterations, *retain, *debugAddr, *logLevel, *slowQuery, *events); err != nil {
		fmt.Fprintln(os.Stderr, "udbserver:", err)
		os.Exit(1)
	}
}

// newLogger builds the server's structured logger from -log-level.
func newLogger(level string) (*slog.Logger, error) {
	if level == "off" {
		return slog.New(slog.DiscardHandler), nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, error or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func run(addr, dir string, shards int, sync string, ckptEvery, synthetic int, dataset string, iterations, retain int, debugAddr, logLevel string, slowQuery time.Duration, events int) error {
	logger, err := newLogger(logLevel)
	if err != nil {
		return err
	}
	opts := core.Options{MaxIterations: iterations}
	db, err := seedDatabase(synthetic, dataset)
	if err != nil {
		return err
	}

	var (
		store  *query.Store
		cursor string
		sopts  = query.ShardedOptions{Shards: shards}
	)
	if dir == "" {
		store, err = query.NewShardedStore(db, sopts, opts)
	} else {
		popts := query.PersistOptions{Dir: dir, CheckpointEvery: ckptEvery}
		switch sync {
		case "os":
			popts.Sync = wal.SyncOS
		case "always":
			popts.Sync = wal.SyncAlways
		case "background":
			popts.Sync = wal.SyncBackground
		default:
			return fmt.Errorf("unknown -sync policy %q (want os, always or background)", sync)
		}
		cursor = filepath.Join(dir, "cursor")
		// A directory that already holds a store is recovered (the seed
		// database is ignored); -shards must then match it.
		store, err = query.BootstrapShardedStore(db, popts, sopts, opts)
		if errors.Is(err, query.ErrStoreExists) {
			store, err = query.OpenShardedStore(popts, sopts, opts)
		}
	}
	if err != nil {
		return err
	}

	srv := server.New(store, server.Options{
		CursorPath:   cursor,
		Retain:       retain,
		SlowQuery:    slowQuery,
		RecorderSize: events,
		Logf:         log.Printf,
		Logger:       logger,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("udbserver: listening on %s (%d objects, shards=%d, durable=%v)",
		ln.Addr(), store.Len(), store.NumShards(), dir != "")

	var debugSrv *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: srv.DebugHandler()}
		log.Printf("udbserver: debug endpoint on http://%s/metrics (pprof under /debug/pprof/)", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("udbserver: debug server: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		log.Printf("udbserver: %v — draining subscriptions and shutting down", s)
	case err := <-serveErr:
		return err
	}
	if debugSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		debugSrv.Shutdown(ctx)
		cancel()
	}
	if err := srv.Close(); err != nil {
		return err
	}
	return store.Close()
}

// seedDatabase builds the initial database from -synthetic / -db (both
// empty: an empty store, populated over the wire).
func seedDatabase(synthetic int, dataset string) (uncertain.Database, error) {
	switch {
	case synthetic > 0 && dataset != "":
		return nil, fmt.Errorf("-synthetic and -db are mutually exclusive")
	case synthetic > 0:
		return workload.Synthetic(workload.SyntheticConfig{N: synthetic, Samples: 8, MaxExtent: 0.02, Seed: 99})
	case dataset != "":
		return workload.LoadFile(dataset)
	default:
		return uncertain.Database{}, nil
	}
}
