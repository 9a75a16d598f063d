// Command faster-cli is an interactive shell over a FASTER store — a
// demonstration and debugging tool for the library.
//
//	faster-cli [-dir /path/for/log]
//
// Commands:
//
//	set <key> <value>     blind upsert (string value)
//	get <key>             read
//	add <key> <n>         RMW: add n to an 8-byte counter
//	del <key>             delete
//	scan                  walk the log in order
//	stats                 store counters, log markers and health state
//	metrics               full metrics report (all layers, named series)
//	checkpoint <dir>      write a checkpoint
//	sessions              dump the live exactly-once session table
//	quit
//
// One non-interactive subcommand exists for post-crash triage:
//
//	faster-cli sessions <checkpoint-dir>
//
// reads the committed session table straight out of a checkpoint
// directory — no log device needed — and prints each GUID with its
// committed serial frontier and the age of its newest commit: exactly
// what a recovered store will answer to `SESSION <guid>`, so operators
// can see what every client is entitled to resume before restarting
// anything.
//
// Counter keys (add/get on keys used with add) are 8-byte sums; set/get
// on other keys store opaque strings. A single store holds only one value
// discipline, so the CLI opens the store with BlobOps and implements add
// as read-modify-write at the client.
//
// Fault-injection knobs (the torture harness, interactively): when any of
// -fault-seed, -fault-read-prob, -fault-write-prob, -fault-latency,
// -torn-writes or -crash-after-bytes is set, the device is wrapped in
// device.Faulty with those settings, and `stats` reports the health
// ladder (healthy/degraded/read-only/failed) plus the injected-fault
// counts — a live demonstration of graceful degradation: break the
// write path and watch `set` fail with ErrReadOnly while `get` keeps
// serving.
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
)

func main() {
	dir := flag.String("dir", "", "directory for the log file (default: in-memory simulated SSD)")
	faultSeed := flag.Uint64("fault-seed", 0, "seed for probabilistic fault injection")
	readProb := flag.Float64("fault-read-prob", 0, "probability each device read fails (0 disables)")
	writeProb := flag.Float64("fault-write-prob", 0, "probability each device write fails (0 disables)")
	faultLatency := flag.Duration("fault-latency", 0, "added device latency per read/write (0 disables)")
	tornWrites := flag.Bool("torn-writes", false, "injected write faults leave a torn prefix on the media")
	crashAfter := flag.Int64("crash-after-bytes", 0, "break the device permanently after N bytes written (0 disables)")
	flag.Parse()

	if flag.Arg(0) == "sessions" {
		dumpSessions(flag.Arg(1))
		return
	}

	var dev device.Device
	if *dir == "" {
		dev = device.NewMem(device.MemConfig{})
	} else {
		f, err := device.OpenFile(filepath.Join(*dir, "faster.log"), 4)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faster-cli: %v\n", err)
			os.Exit(1)
		}
		dev = f
	}
	var faulty *device.Faulty
	if *faultSeed != 0 || *readProb > 0 || *writeProb > 0 ||
		*faultLatency > 0 || *tornWrites || *crashAfter > 0 {
		faulty = device.NewFaulty(dev)
		faulty.SeedFaults(*faultSeed, *readProb, *writeProb)
		faulty.TornWrites(*tornWrites)
		faulty.InjectLatency(*faultLatency, *faultLatency)
		if *crashAfter > 0 {
			faulty.CrashAfterBytes(*crashAfter)
		}
		dev = faulty
	}
	store, err := faster.Open(faster.Config{
		IndexBuckets: 1 << 16,
		PageBits:     16,
		BufferPages:  64,
		Device:       dev,
		Ops:          faster.BlobOps{},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "faster-cli: %v\n", err)
		os.Exit(1)
	}
	defer store.Close()
	sess := store.StartSession()
	defer func() { sess.Close() }() // sess is swapped around checkpoints

	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("faster-cli ready (set/get/add/del/scan/stats/metrics/checkpoint/sessions/quit)")
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "set":
			if len(fields) < 3 {
				fmt.Println("usage: set <key> <value>")
				continue
			}
			st, err := sess.Upsert([]byte(fields[1]), []byte(strings.Join(fields[2:], " ")))
			report(st, err, "")
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			out := make([]byte, 256)
			st, err := sess.Read([]byte(fields[1]), nil, out, nil)
			if st == faster.Pending {
				for _, r := range sess.CompletePending(true) {
					st = r.Status
				}
			}
			report(st, err, strings.TrimRight(string(out), "\x00"))
		case "add":
			if len(fields) != 3 {
				fmt.Println("usage: add <key> <n>")
				continue
			}
			n, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				fmt.Println("bad number:", err)
				continue
			}
			// Client-side RMW over BlobOps: read, add, upsert.
			key := []byte(fields[1])
			out := make([]byte, 8)
			st, _ := sess.Read(key, nil, out, nil)
			if st == faster.Pending {
				for _, r := range sess.CompletePending(true) {
					st = r.Status
				}
			}
			cur := uint64(0)
			if st == faster.OK {
				cur = binary.LittleEndian.Uint64(out)
			}
			binary.LittleEndian.PutUint64(out, cur+n)
			st, err = sess.Upsert(key, out)
			report(st, err, fmt.Sprintf("%d", cur+n))
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			st, err := sess.Delete([]byte(fields[1]))
			report(st, err, "")
		case "scan":
			n := 0
			err := store.Scan(faster.ScanOptions{}, func(r faster.ScanRecord) bool {
				kind := "set"
				if r.Tombstone {
					kind = "del"
				}
				fmt.Printf("  %#010x %s %q (%d bytes)\n", r.Address, kind, r.Key, len(r.Value))
				n++
				return n < 100
			})
			if err != nil {
				fmt.Println("scan:", err)
			}
		case "stats":
			s := store.Stats()
			l := store.Log()
			fmt.Printf("  ops=%d inPlace=%d appends=%d pendingIO=%d fuzzy=%d failedCAS=%d\n",
				s.Operations, s.InPlace, s.Appends, s.PendingIOs, s.FuzzyRMWs, s.FailedCAS)
			fmt.Printf("  log: begin=%#x head=%#x safeRO=%#x ro=%#x tail=%#x\n",
				l.BeginAddress(), l.HeadAddress(), l.SafeReadOnlyAddress(),
				l.ReadOnlyAddress(), l.TailAddress())
			fmt.Printf("  health: %s", store.Health())
			if cause := store.HealthCause(); cause != nil {
				fmt.Printf(" (cause: %v)", cause)
			}
			fmt.Println()
			if faulty != nil {
				ir, iw := faulty.InjectedFaults()
				fmt.Printf("  faults: reads=%d writes=%d torn=%d broken=%v\n",
					ir, iw, faulty.TornWriteCount(), faulty.Broken())
			}
		case "sessions":
			printSessions(store.SessionStates(), true)
		case "metrics":
			if err := store.WriteReport(os.Stdout); err != nil {
				fmt.Println("metrics:", err)
			}
		case "checkpoint":
			if len(fields) != 2 {
				fmt.Println("usage: checkpoint <dir>")
				continue
			}
			// The shell's own idle session would pin the epoch and wedge
			// the checkpoint's safe-RO shift, so drop it around the call.
			sess.Close()
			info, err := store.Checkpoint(fields[1])
			sess = store.StartSession()
			if err != nil {
				fmt.Println("checkpoint:", err)
				continue
			}
			fmt.Printf("  checkpoint ok: t1=%#x t2=%#x\n", info.T1, info.T2)
		default:
			fmt.Println("unknown command:", fields[0])
		}
	}
}

// dumpSessions implements `faster-cli sessions <checkpoint-dir>`: the
// committed session table as a recovered store would answer it. Every
// checkpoint directory holds per-shard generations under one manifest
// (a flat store is one shard); each GUID's frontier is the max acked
// serial over shards.
func dumpSessions(dir string) {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "usage: faster-cli sessions <checkpoint-dir>")
		os.Exit(2)
	}
	states, err := faster.ReadCheckpointSessions(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faster-cli: %v\n", err)
		os.Exit(1)
	}
	printSessions(states, false)
}

// printSessions renders session states one per line. live adds the
// durable column (meaningless for an offline checkpoint dump, where
// durable == committed by construction).
func printSessions(states []faster.SessionState, live bool) {
	if len(states) == 0 {
		fmt.Println("  no sessions")
		return
	}
	if live {
		fmt.Printf("  %-40s %10s %10s %10s\n", "GUID", "SERIAL", "DURABLE", "AGE")
	} else {
		fmt.Printf("  %-40s %10s %10s\n", "GUID", "SERIAL", "AGE")
	}
	now := time.Now().Unix()
	for _, st := range states {
		age := time.Duration(now-st.UpdatedUnix) * time.Second
		if st.UpdatedUnix == 0 {
			age = 0
		}
		if live {
			fmt.Printf("  %-40s %10d %10d %10s\n", st.GUID, st.Acked, st.Durable, age)
		} else {
			fmt.Printf("  %-40s %10d %10s\n", st.GUID, st.Acked, age)
		}
	}
}

func report(st faster.Status, err error, extra string) {
	switch {
	case err != nil:
		fmt.Println("error:", err)
	case st == faster.OK && extra != "":
		fmt.Println(" ", extra)
	default:
		fmt.Println(" ", st)
	}
}
