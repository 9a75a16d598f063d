package device

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/retry"
)

// Fault sentinels. All injected errors wrap ErrInjected so tests can
// detect injection with errors.Is; permanent flavors additionally wrap
// ErrPermanent so the Classify taxonomy stops retrying them.
var (
	// ErrInjected is returned by Faulty for injected transient failures.
	ErrInjected = errors.New("device: injected fault")
	// ErrInjectedPermanent is returned once the device is permanently
	// broken (BreakPermanently or a crash point).
	ErrInjectedPermanent = fmt.Errorf("%w (%w)", ErrInjected, ErrPermanent)
	// ErrTornWrite is returned for a write that only partially reached the
	// media. It is transient: the flush retry rewrites the full extent.
	ErrTornWrite = fmt.Errorf("device: torn write: %w", ErrInjected)
	// ErrCrashPoint is returned by the write that hits a CrashAfterBytes
	// boundary and by every operation after it.
	ErrCrashPoint = fmt.Errorf("device: crash point reached: %w (%w)", ErrInjected, ErrPermanent)
)

// Op identifies a device operation for per-call fault hooks.
type Op int

const (
	OpRead Op = iota
	OpWrite
	OpSync
	OpTruncate
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Hook decides per call whether to inject a fault: a non-nil return is
// delivered as the operation's error (counted as injected). offset and
// length are zero for Sync; length is zero for Truncate (offset carries
// the truncation point).
type Hook func(op Op, offset uint64, length int) error

// Faulty wraps a Device and injects errors, for failure testing: the
// store must surface injected read errors as failed operations without
// corrupting state, and injected write (flush) errors must never let
// eviction pass unflushed pages.
//
// Beyond the deterministic every-Nth knobs it supports seeded
// probabilistic faults, torn (short) writes, latency injection, and
// fail-at-byte-N crash points — the substrate of the crash/recovery
// torture harness (internal/faster/torture_test.go).
type Faulty struct {
	inner Device

	// FailEveryNthRead fails every Nth read (0 disables).
	failEveryNthRead atomic.Int64
	// FailEveryNthWrite fails every Nth write (0 disables).
	failEveryNthWrite atomic.Int64

	// Seeded probabilistic faults: per-op probabilities in [0,1], decided
	// by a seeded xorshift so runs are reproducible for a fixed seed and
	// op order.
	readProbBits  atomic.Uint64 // math.Float64bits
	writeProbBits atomic.Uint64
	rngState      atomic.Uint64

	// Torn writes: injected write faults first deliver a prefix of the
	// buffer to the inner device, modelling a power cut mid-sector-train.
	tornWrites atomic.Bool

	// Crash point: after crashBudget total bytes have been written the
	// device breaks permanently; the boundary-crossing write is torn at
	// the boundary.
	crashArmed  atomic.Bool
	crashBudget atomic.Int64

	// Latency injection, nanoseconds added before forwarding.
	readLatencyNs  atomic.Int64
	writeLatencyNs atomic.Int64

	// Latency-spike schedule (SpikeLatency): every spikePeriodNs, reads
	// and writes issued during the first spikeLenNs of the period are
	// delayed an extra spikeNs — a square-wave chaos schedule modelling a
	// device that periodically stalls (GC pause, firmware hiccup).
	spikeNs       atomic.Int64
	spikePeriodNs atomic.Int64
	spikeLenNs    atomic.Int64
	spikeEpochNs  atomic.Int64

	hook atomic.Value // Hook

	reads, writes     atomic.Int64
	injectedReads     atomic.Int64
	injectedWrites    atomic.Int64
	injectedSyncs     atomic.Int64
	injectedTruncates atomic.Int64
	tornWritesCount   atomic.Int64
	permanentBroken   atomic.Bool
}

// NewFaulty wraps inner.
func NewFaulty(inner Device) *Faulty {
	f := &Faulty{inner: inner}
	f.rngState.Store(1)
	return f
}

// FailEveryNthRead arranges every n-th read to fail (0 disables).
func (d *Faulty) FailEveryNthRead(n int64) { d.failEveryNthRead.Store(n) }

// FailEveryNthWrite arranges every n-th write to fail (0 disables).
func (d *Faulty) FailEveryNthWrite(n int64) { d.failEveryNthWrite.Store(n) }

// SeedFaults seeds the fault PRNG and sets per-operation failure
// probabilities (clamped to [0,1]; 0 disables). For a fixed seed and
// operation order the injected fault sequence is reproducible.
func (d *Faulty) SeedFaults(seed uint64, readProb, writeProb float64) {
	d.rngState.Store(seed | 1)
	d.readProbBits.Store(math.Float64bits(clamp01(readProb)))
	d.writeProbBits.Store(math.Float64bits(clamp01(writeProb)))
}

// TornWrites makes injected write faults deliver a short prefix of the
// buffer to the inner device before failing (modelling torn sector
// trains). The prefix length is drawn from the fault PRNG.
func (d *Faulty) TornWrites(enabled bool) { d.tornWrites.Store(enabled) }

// CrashAfterBytes arms a crash point: once n total bytes have been
// written through this wrapper, the write crossing the boundary is torn
// at exactly the boundary and the device breaks permanently (every
// subsequent operation fails with ErrCrashPoint).
func (d *Faulty) CrashAfterBytes(n int64) {
	d.crashBudget.Store(n)
	d.crashArmed.Store(true)
}

// InjectLatency adds fixed delays before reads and writes are forwarded
// to the inner device (zero disables). The delay is asynchronous: the
// caller's goroutine is not blocked.
func (d *Faulty) InjectLatency(read, write time.Duration) {
	d.readLatencyNs.Store(int64(read))
	d.writeLatencyNs.Store(int64(write))
}

// SpikeLatency schedules periodic latency spikes: starting now, every
// period, operations issued during the first spikeLen of the period incur
// an extra spike delay on top of any InjectLatency base. A zero spike or
// period disables the schedule. Like InjectLatency the delay is
// asynchronous — callers are never blocked, completions just arrive late —
// which makes it the chaos input for SLO tests: hot in-memory traffic
// must ride through a spike untouched while cold misses slow or shed.
func (d *Faulty) SpikeLatency(spike, period, spikeLen time.Duration) {
	if spike <= 0 || period <= 0 || spikeLen <= 0 {
		d.spikeNs.Store(0)
		d.spikePeriodNs.Store(0)
		d.spikeLenNs.Store(0)
		return
	}
	if spikeLen > period {
		spikeLen = period
	}
	d.spikeEpochNs.Store(time.Now().UnixNano())
	d.spikeLenNs.Store(int64(spikeLen))
	d.spikePeriodNs.Store(int64(period))
	d.spikeNs.Store(int64(spike))
}

// spikeExtra returns the extra delay the spike schedule imposes on an
// operation issued now.
func (d *Faulty) spikeExtra() int64 {
	period := d.spikePeriodNs.Load()
	if period <= 0 {
		return 0
	}
	phase := (time.Now().UnixNano() - d.spikeEpochNs.Load()) % period
	if phase < 0 || phase >= d.spikeLenNs.Load() {
		return 0
	}
	return d.spikeNs.Load()
}

// SetHook installs a per-call fault hook consulted before every
// operation (nil removes it). A non-nil return is injected as that
// operation's error.
func (d *Faulty) SetHook(h Hook) { d.hook.Store(h) }

// BreakPermanently makes every subsequent operation fail.
func (d *Faulty) BreakPermanently() { d.permanentBroken.Store(true) }

// Broken reports whether the device is permanently broken (explicitly or
// via a crash point).
func (d *Faulty) Broken() bool { return d.permanentBroken.Load() }

// InjectedFaults returns (readFaults, writeFaults) counts. Sync and
// truncate injections count as write faults.
func (d *Faulty) InjectedFaults() (int64, int64) {
	w := d.injectedWrites.Load() + d.injectedSyncs.Load() + d.injectedTruncates.Load()
	return d.injectedReads.Load(), w
}

// TornWriteCount returns how many injected faults delivered a torn
// prefix to the media.
func (d *Faulty) TornWriteCount() int64 { return d.tornWritesCount.Load() }

// Metrics implements MetricsSource: the inner device's metrics (when it
// exposes any) annotated with this wrapper's injected-fault counters.
func (d *Faulty) Metrics() Metrics {
	var m Metrics
	if src, ok := d.inner.(MetricsSource); ok {
		m = src.Metrics()
	}
	r, w := d.InjectedFaults()
	m.InjectedReadFaults = uint64(r)
	m.InjectedWriteFaults = uint64(w)
	return m
}

func clamp01(p float64) float64 {
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// nextRand advances the seeded xorshift64* state.
func (d *Faulty) nextRand() uint64 {
	for {
		old := d.rngState.Load()
		x := old
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		if d.rngState.CompareAndSwap(old, x) {
			return x * 0x2545F4914F6CDD1D
		}
	}
}

// roll returns true with the probability stored in bits.
func (d *Faulty) roll(bits *atomic.Uint64) bool {
	p := math.Float64frombits(bits.Load())
	if p <= 0 {
		return false
	}
	return float64(d.nextRand()>>11)/float64(1<<53) < p
}

// hookErr consults the per-call hook.
func (d *Faulty) hookErr(op Op, offset uint64, length int) error {
	if h, _ := d.hook.Load().(Hook); h != nil {
		return h(op, offset, length)
	}
	return nil
}

// ReadAsync implements Device.
func (d *Faulty) ReadAsync(buf []byte, offset uint64, cb Callback) {
	n := d.reads.Add(1)
	if err := d.hookErr(OpRead, offset, len(buf)); err != nil {
		d.injectedReads.Add(1)
		cb(err)
		return
	}
	if d.permanentBroken.Load() {
		d.injectedReads.Add(1)
		cb(d.permanentErr())
		return
	}
	if nth := d.failEveryNthRead.Load(); (nth > 0 && n%nth == 0) || d.roll(&d.readProbBits) {
		d.injectedReads.Add(1)
		cb(ErrInjected)
		return
	}
	d.forward(d.readLatencyNs.Load()+d.spikeExtra(), func() { d.inner.ReadAsync(buf, offset, cb) })
}

// WriteAsync implements Device.
func (d *Faulty) WriteAsync(buf []byte, offset uint64, cb Callback) {
	n := d.writes.Add(1)
	if err := d.hookErr(OpWrite, offset, len(buf)); err != nil {
		d.injectedWrites.Add(1)
		d.failWrite(buf, offset, err, cb)
		return
	}
	if d.permanentBroken.Load() {
		d.injectedWrites.Add(1)
		cb(d.permanentErr())
		return
	}
	if d.crashArmed.Load() {
		remaining := d.crashBudget.Add(-int64(len(buf)))
		if remaining < 0 {
			// This write crosses the crash boundary: deliver exactly the
			// bytes that fit, then the device is dead.
			d.permanentBroken.Store(true)
			d.injectedWrites.Add(1)
			keep := int64(len(buf)) + remaining
			if keep > 0 {
				d.tornWritesCount.Add(1)
				d.inner.WriteAsync(buf[:keep], offset, func(error) { cb(ErrCrashPoint) })
			} else {
				cb(ErrCrashPoint)
			}
			return
		}
	}
	if nth := d.failEveryNthWrite.Load(); (nth > 0 && n%nth == 0) || d.roll(&d.writeProbBits) {
		d.injectedWrites.Add(1)
		d.failWrite(buf, offset, ErrInjected, cb)
		return
	}
	d.forward(d.writeLatencyNs.Load()+d.spikeExtra(), func() { d.inner.WriteAsync(buf, offset, cb) })
}

// failWrite delivers an injected write failure, optionally leaving a torn
// prefix on the media first.
func (d *Faulty) failWrite(buf []byte, offset uint64, err error, cb Callback) {
	if d.tornWrites.Load() && len(buf) > 1 {
		keep := 1 + int(d.nextRand()%uint64(len(buf)-1)) // [1, len-1]
		d.tornWritesCount.Add(1)
		torn := ErrTornWrite
		if Classify(err) == retry.Permanent {
			torn = err // keep the permanent class; the prefix still lands
		}
		d.inner.WriteAsync(buf[:keep], offset, func(error) { cb(torn) })
		return
	}
	cb(err)
}

// forward runs op after an optional injected latency without blocking the
// caller.
func (d *Faulty) forward(latencyNs int64, op func()) {
	if latencyNs <= 0 {
		op()
		return
	}
	time.AfterFunc(time.Duration(latencyNs), op)
}

// permanentErr distinguishes an explicit break from a crash point.
func (d *Faulty) permanentErr() error {
	if d.crashArmed.Load() && d.crashBudget.Load() < 0 {
		return ErrCrashPoint
	}
	return ErrInjectedPermanent
}

// Sync implements Device. Unlike the pre-hardening version it honors
// permanent breakage and per-call hooks: a dead device must not report a
// successful barrier.
func (d *Faulty) Sync() error {
	if err := d.hookErr(OpSync, 0, 0); err != nil {
		d.injectedSyncs.Add(1)
		return err
	}
	if d.permanentBroken.Load() {
		d.injectedSyncs.Add(1)
		return d.permanentErr()
	}
	return d.inner.Sync()
}

// Truncate implements Device, honoring permanent breakage and hooks.
func (d *Faulty) Truncate(until uint64) error {
	if err := d.hookErr(OpTruncate, until, 0); err != nil {
		d.injectedTruncates.Add(1)
		return err
	}
	if d.permanentBroken.Load() {
		d.injectedTruncates.Add(1)
		return d.permanentErr()
	}
	return d.inner.Truncate(until)
}

// Close implements Device.
func (d *Faulty) Close() error { return d.inner.Close() }
