package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/resp"
	"repro/internal/xhash"
)

// Micro rows: each times one layer's public function from the
// benchmark's side, over the workload's own keys and bytes, so the ledger
// can say how much of a request each layer can account for at most.

const microReps = 5

// timeLoop runs fn (n operations per call) microReps times and returns
// the median nanoseconds per operation.
func timeLoop(n int, fn func()) float64 {
	per := make([]float64, microReps)
	for i := range per {
		start := time.Now()
		fn()
		per[i] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

var sink uint64

// microRESP times decoding the replay's commands and encoding its replies
// with internal/resp, in memory.
func microRESP(own *owner, ops []op) []metric {
	enc := encoder{own: own}
	var stream []byte
	for _, p := range ops {
		stream = append(stream, enc.encode(p)...)
	}
	var cmd resp.Command
	decode := func() {
		rd := resp.NewReader(bytes.NewReader(stream))
		for range ops {
			if err := rd.ReadCommandInto(&cmd); err != nil {
				panic(err) // the benchmark's own encoder produced the stream
			}
		}
	}
	var val [valueLen]byte
	wr := resp.NewWriter(io.Discard)
	encode := func() {
		for _, p := range ops {
			switch p.kind {
			case opGet:
				wr.WriteBulk(val[:])
			case opSet:
				wr.WriteSimple("OK")
			default:
				wr.WriteInt(p.delta)
			}
		}
		wr.Flush()
	}
	n := len(ops)
	m0 := mallocs()
	dec, encNs := timeLoop(n, decode), timeLoop(n, encode)
	allocs := float64(mallocs()-m0) / float64(2*microReps*n)
	return []metric{
		{"resp.decode_ns", dec, "ns", uint64(n)},
		{"resp.encode_ns", encNs, "ns", uint64(n)},
		{"resp.allocs_per_op", allocs, "count", uint64(n)},
	}
}

// microLoopback is the median round trip of a request-sized message
// against a bare echo listener: what the socket costs with no server.
func microLoopback(n int) (metric, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return metric{}, err
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return metric{}, err
	}
	msg := make([]byte, 38) // a GET of a 16-byte key
	lat := make([]int64, n)
	c.SetDeadline(time.Now().Add(time.Minute))
	for i := range lat {
		start := time.Now()
		if _, err := c.Write(msg); err == nil {
			_, err = io.ReadFull(c, msg)
		}
		if err != nil {
			c.Close()
			return metric{}, fmt.Errorf("loopback echo: %w", err)
		}
		lat[i] = int64(time.Since(start))
	}
	c.Close()
	<-echoed
	return metric{"server.loopback_rtt_ns", medianInt64(lat), "ns", uint64(n)}, nil
}

// microStore times xhash and the index probe over the replay's keys on
// the live store.
func microStore(store *faster.ShardedStore, keys [][]byte) []metric {
	n := len(keys)
	hashNs := timeLoop(n, func() {
		for _, k := range keys {
			sink ^= xhash.Bytes(k)
		}
	})
	hashes := make([]uint64, n)
	shard := make([]int, n)
	for i, k := range keys {
		hashes[i], shard[i] = xhash.Bytes(k), store.ShardFor(k)
	}
	probeNs := timeLoop(n, func() {
		for i, h := range hashes {
			_, addr, _ := store.Shard(shard[i]).Index().FindEntry(h)
			sink ^= addr
		}
	})
	return []metric{
		{"xhash.bytes_ns", hashNs, "ns", uint64(n)},
		{"index.probe_ns", probeNs, "ns", uint64(n)},
	}
}

// microEpoch times the epoch table on a manager of its own.
func microEpoch(n int) []metric {
	em := epoch.New(64)
	pair := timeLoop(n, func() {
		for i := 0; i < n; i++ {
			em.Acquire().Release()
		}
	})
	g := em.Acquire()
	refresh := timeLoop(n, func() {
		for i := 0; i < n; i++ {
			g.Refresh()
		}
	})
	g.Release()
	return []metric{
		{"epoch.acquire_release_ns", pair, "ns", uint64(n)},
		{"epoch.refresh_ns", refresh, "ns", uint64(n)},
	}
}

// microAllocate times tail allocation of the workload's record size on a
// log of its own over a device that discards writes.
func microAllocate(w *workload, n int) (metric, error) {
	em := epoch.New(8)
	log, err := hlog.New(hlog.Config{
		PageBits: w.pageBits, BufferPages: w.bufferPages, MutableFraction: 0.9,
		Mode: hlog.ModeHybrid, Device: device.NewNull(), Epoch: em,
	})
	if err != nil {
		return metric{}, err
	}
	defer log.Close()
	g := em.Acquire()
	defer g.Release()
	size := uint32(w.recordBytes())
	var allocErr error
	ns := timeLoop(n, func() {
		for i := 0; i < n; i++ {
			if i%256 == 0 {
				g.Refresh()
			}
			addr, err := log.Allocate(size, g)
			if err != nil {
				allocErr = err
				return
			}
			sink ^= addr
		}
	})
	return metric{"hlog.allocate_ns", ns, "ns", uint64(n)}, allocErr
}
