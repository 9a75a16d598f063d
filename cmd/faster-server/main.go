// Command faster-server serves a FASTER store over RESP2 TCP — the
// network front-end with overload robustness (connection caps, bounded
// admission, deadlines, health-aware shedding, graceful drain).
//
// Speak to it with any Redis client or redis-cli:
//
//	faster-server -addr :6379 -admin :8080
//	redis-cli -p 6379 SET greeting hello
//	redis-cli -p 6379 GET greeting
//	curl localhost:8080/healthz
//
// With -shards N the key space is partitioned over N independent
// shards (each with its own log device, index, epoch domain, and
// checkpoint generation) behind the same single-node RESP surface;
// pipelined windows and MGET/MSET fan out per shard and rejoin in
// order, and one degraded shard sheds only its own keys.
//
// Supported commands: GET, SET, DEL, INCRBY, MGET, MSET, PING, ECHO,
// QUIT, plus SESSION/SERIAL exactly-once stamping. Under
// overload the server replies -OVERLOADED instead of queueing; with the
// store degraded to read-only, writes get -READONLY while reads keep
// serving. SIGINT/SIGTERM trigger a graceful drain: accepting stops,
// in-flight commands finish under -drain-timeout, and (with -checkpoint)
// a final checkpoint is taken.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:6379", "RESP listen address")
		admin   = flag.String("admin", "", "admin HTTP address for /healthz and /metrics (empty: disabled)")
		doPprof = flag.Bool("pprof", false, "expose /debug/pprof/ on the admin address (requires -admin)")

		shards  = flag.Int("shards", 1, "independent store shards behind the front-end")
		dataDir = flag.String("data", "", "data directory for the log device (empty: in-memory device)")
		doRecov = flag.Bool("recover", false, "recover from the newest checkpoint in -data/checkpoints before serving")
		doCkpt  = flag.Bool("checkpoint", false, "take a final checkpoint into -data/checkpoints during graceful drain")

		indexBuckets = flag.Uint64("index-buckets", 1<<16, "initial hash-index buckets")
		pageBits     = flag.Uint("page-bits", 22, "log page size as a power of two")
		bufferPages  = flag.Int("buffer-pages", 32, "in-memory log buffer pages")

		sessions     = flag.Int("sessions", 16, "FASTER session-pool size")
		maxConns     = flag.Int("max-conns", 256, "connection cap (excess shed with -OVERLOADED)")
		maxInFl      = flag.Int("max-inflight", 0, "in-flight command cap (default 4*sessions)")
		idleTO       = flag.Duration("idle-timeout", 5*time.Minute, "per-connection idle timeout")
		opTO         = flag.Duration("op-timeout", 5*time.Second, "per-command deadline; expiry sheds with -TIMEOUT")
		drainTO      = flag.Duration("drain-timeout", 10*time.Second, "graceful drain deadline on SIGTERM")
		maxValue     = flag.Int("max-value-bytes", 512<<10, "largest accepted SET value")
		ioWorkers    = flag.Int("io-workers", 4, "device I/O workers for the file device")
		ioPool       = flag.Int("io-pool", 4, "io-worker pool size completing cold misses out of band")
		ioQueueDepth = flag.Int("io-queue-depth", 0, "bounded cold-miss admission queue (0: 16x io-pool); overflow sheds -OVERLOADED")

		compactAt = flag.Uint64("compact-threshold", 0, "compact when the stable log region exceeds this many bytes (0: manual COMPACT only)")

		readCache = flag.Uint64("read-cache-bytes", 0, "total in-memory read-cache budget across all shards for cold reads (0: disabled)")
	)
	flag.Parse()

	if (*doRecov || *doCkpt) && *dataDir == "" {
		fatal("-recover/-checkpoint require -data")
	}
	if *doPprof && *admin == "" {
		fatal("-pprof requires -admin")
	}

	if *shards < 1 {
		fatal("-shards must be at least 1")
	}

	// Devices: file-backed under -data (hlog for a single shard, hlog-<i>
	// per shard otherwise, so single-shard data dirs stay recoverable),
	// else process-lifetime Mem devices (useful for benchmarking the
	// network path without a disk). Shards never share a device.
	devs := make([]device.Device, *shards)
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			fatal("create data dir: %v", err)
		}
		for i := range devs {
			name := "hlog"
			if *shards > 1 {
				name = fmt.Sprintf("hlog-%d", i)
			}
			f, err := device.OpenFile(filepath.Join(*dataDir, name), *ioWorkers)
			if err != nil {
				fatal("open log device %s: %v", name, err)
			}
			devs[i] = f
		}
	} else {
		for i := range devs {
			devs[i] = device.NewMem(device.MemConfig{})
		}
	}
	defer func() {
		for _, d := range devs {
			d.Close()
		}
	}()

	cfg := faster.ShardedConfig{
		Shards: *shards,
		Base: faster.Config{
			Ops:          faster.VarLenOps{},
			IndexBuckets: *indexBuckets,
			PageBits:     *pageBits,
			BufferPages:  *bufferPages,
			MaxSessions:  *sessions + 8, // pool + admin/recovery headroom
			IOWorkers:    *ioPool,
			IOQueueDepth: *ioQueueDepth,

			CompactionThreshold: *compactAt,
			ReadCacheBytes:      *readCache,
		},
		NewDevice: func(i int) device.Device { return devs[i] },
	}

	var ckptDir string
	if *dataDir != "" {
		ckptDir = filepath.Join(*dataDir, "checkpoints")
	}

	var store *faster.ShardedStore
	var err error
	if *doRecov {
		store, err = faster.RecoverSharded(cfg, ckptDir)
		if err != nil {
			fatal("recover: %v", err)
		}
		fmt.Printf("faster-server: recovered %d shard(s) from %s\n", store.NumShards(), ckptDir)
	} else {
		store, err = faster.OpenSharded(cfg)
		if err != nil {
			fatal("open store: %v", err)
		}
	}
	defer store.Close()

	scfg := server.Config{
		MaxConns:     *maxConns,
		MaxInFlight:  *maxInFl,
		Sessions:     *sessions,
		IdleTimeout:  *idleTO,
		OpTimeout:    *opTO,
		DrainTimeout: *drainTO,
		MaxValueBytes: func() int {
			if *maxValue > 0 {
				return *maxValue
			}
			return 512 << 10
		}(),
	}
	if *doCkpt {
		scfg.CheckpointDir = ckptDir
	}
	scfg.EnablePprof = *doPprof

	srv, err := server.ListenAndServeSharded(store, *addr, scfg)
	if err != nil {
		fatal("listen: %v", err)
	}
	inflight := scfg.MaxInFlight
	if inflight <= 0 {
		inflight = 4 * *sessions
	}
	fmt.Printf("faster-server: serving RESP on %s (shards=%d sessions=%d conns<=%d inflight<=%d)\n",
		srv.Addr(), store.NumShards(), *sessions, *maxConns, inflight)

	var adminSrv *http.Server
	if *admin != "" {
		adminSrv = &http.Server{Addr: *admin, Handler: srv.AdminHandler()}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "faster-server: admin: %v\n", err)
			}
		}()
		surfaces := "/healthz, /metrics"
		if *doPprof {
			surfaces += ", /debug/pprof"
		}
		fmt.Printf("faster-server: admin on %s (%s)\n", *admin, surfaces)
	}

	// Graceful drain on SIGINT/SIGTERM: stop accepting, finish in-flight
	// work under the deadline, optionally checkpoint, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("faster-server: %v: draining (deadline %v)\n", got, *drainTO)

	start := time.Now()
	drainErr := srv.Close()
	if adminSrv != nil {
		adminSrv.Close()
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "faster-server: drain: %v\n", drainErr)
		store.Close()
		os.Exit(1)
	}
	if err := store.Close(); err != nil {
		fatal("close store: %v", err)
	}
	m := srv.Metrics()
	fmt.Printf("faster-server: drained in %v (%d commands served, %d sheds, %d evictions)\n",
		time.Since(start).Round(time.Millisecond), m.Commands, m.OverloadSheds, m.DeadlineEvictions)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "faster-server: "+format+"\n", args...)
	os.Exit(1)
}
