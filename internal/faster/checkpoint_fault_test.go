package faster

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/testutil"
)

// checkpointTwice builds a store with two checkpoint generations: phase A
// (keys 0..499 = i+1) under checkpoint 1, phase B (keys 1000..1199) under
// checkpoint 2.
func checkpointTwice(t *testing.T, dir string) (Config, CheckpointInfo, CheckpointInfo) {
	t.Helper()
	dev := device.NewMem(device.MemConfig{})
	t.Cleanup(func() { dev.Close() })
	cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: dev}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for i := uint64(0); i < 500; i++ {
		sess.RMW(key(i), u64(i+1), nil)
	}
	sess.CompletePending(true)
	sess.Close()
	infoA, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	sess = s.StartSession()
	for i := uint64(1000); i < 1200; i++ {
		sess.RMW(key(i), u64(i+1), nil)
	}
	sess.CompletePending(true)
	sess.Close()
	infoB, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg, infoA, infoB
}

// pageUp rounds addr up to the next 4 KB page boundary (PageBits 12 in
// these tests): RecoverTo resumes allocation on a fresh page above t2.
func pageUp(addr uint64) uint64 { return (addr + (1 << 12) - 1) &^ uint64(1<<12-1) }

// recoversA asserts that dir recovers checkpoint A of checkpointTwice:
// its tail, its keys, and none of phase B's.
func recoversA(t *testing.T, cfg Config, dir string, infoA CheckpointInfo) {
	t.Helper()
	r, err := Recover(cfg, dir)
	if err != nil {
		t.Fatalf("fallback recovery: %v", err)
	}
	defer r.Close()
	if got := r.Log().TailAddress(); got != pageUp(infoA.T2) {
		t.Fatalf("fallback recovery tail = %#x, want t2 of checkpoint A rounded up %#x", got, pageUp(infoA.T2))
	}
	rs := r.StartSession()
	defer rs.Close()
	for i := uint64(0); i < 500; i += 31 {
		got, st := readU64(t, rs, key(i))
		if st != OK || got != i+1 {
			t.Fatalf("fallback: key %d = (%d, %v), want (%d, OK)", i, got, st, i+1)
		}
	}
	// Phase-B records lie above checkpoint A's t2: recovered state must
	// not resurrect them (monotonicity per §6.5).
	if _, st := readU64(t, rs, key(1000)); st != NotFound {
		t.Fatalf("phase-B key after fallback = %v, want NotFound", st)
	}
}

// genMeta is the meta of checkpointTwice's generation seq (one shard).
func genMeta(dir string, seq uint64) string {
	return filepath.Join(shardGenDir(dir, seq, 0), "meta.ckpt")
}

func TestTornMetaFallsBackToPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg, infoA, infoB := checkpointTwice(t, dir)

	// Intact directory: recovery picks the newest generation.
	r, err := Recover(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Log().TailAddress(); got != pageUp(infoB.T2) {
		t.Fatalf("intact recovery tail = %#x, want t2 of checkpoint B rounded up %#x", got, pageUp(infoB.T2))
	}
	r.Close()

	// Tear the current generation's meta (CRC mismatch): recovery must
	// fall back to manifest.prev's generation instead of failing outright.
	raw, err := os.ReadFile(genMeta(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	raw[8] ^= 0xFF
	if err := os.WriteFile(genMeta(dir, 2), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recoversA(t, cfg, dir, infoA)
}

// TestMetaBracketOutOfOrderFallsBack: a CRC-valid meta whose bracket
// breaks Begin ≤ T1 ≤ T2 is torn — no writer commits one — so recovery
// falls back to the previous generation.
func TestMetaBracketOutOfOrderFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg, infoA, infoB := checkpointTwice(t, dir)
	raw, err := os.ReadFile(genMeta(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := parseMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if meta.CheckpointInfo != infoB {
		t.Fatalf("generation 2 meta %+v, checkpoint returned %+v", meta.CheckpointInfo, infoB)
	}
	meta.T2 = meta.T1 - 1 // T1 > T2; the manifest's T1 still matches
	if err := os.WriteFile(genMeta(dir, 2), meta.encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	recoversA(t, cfg, dir, infoA)
}

// TestHostileManifestFallsBack: a 32-byte manifest with a valid CRC
// whose shard count is 1<<61 (8*count wraps to 0 in uint64) is rejected
// without allocating, so recovery falls back to manifest.prev; with both
// manifests hostile it returns an error. Manifests resealed under the
// previous router's magic are refused too, flat and sharded.
func TestHostileManifestFallsBack(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	cfg, infoA, _ := checkpointTwice(t, dir)
	hostile := sealWords(manifestMagic, 2, 1<<61)
	if err := os.WriteFile(filepath.Join(dir, "manifest.ckpt"), hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	recoversA(t, cfg, dir, infoA)

	if err := os.WriteFile(filepath.Join(dir, "manifest.prev"), hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := Recover(cfg, dir); err == nil {
		r.Close()
		t.Fatal("recovered from two hostile manifests")
	}

	// Generations committed under the consistent-hash ring hold each key
	// on the ring's shard, not the split's: both manifests, CRC-valid
	// under the ring's magic, must fail rather than load.
	dir = t.TempDir()
	cfg, _, _ = checkpointTwice(t, dir)
	resealManifests(t, dir, ringManifestMagic)
	if r, err := Recover(cfg, dir); err == nil || r != nil || !strings.Contains(err.Error(), "bad magic") {
		if r != nil {
			r.Close()
		}
		t.Fatalf("Recover of ring-router manifests: opened %t, err %v; want nothing opened and bad magic", r != nil, err)
	}

	sdir := t.TempDir()
	ss, devs := openTestSharded(t, 4, Config{})
	for gen := uint64(1); gen <= 2; gen++ {
		sess := ss.StartSession()
		for i := uint64(0); i < 100; i++ {
			sess.Upsert(key(i), u64(gen))
		}
		sess.Close()
		if _, err := ss.Checkpoint(sdir); err != nil {
			t.Fatal(err)
		}
	}
	ss.Close()
	resealManifests(t, sdir, ringManifestMagic)
	if r, err := RecoverSharded(shardedTestConfig(4, Config{}, devs), sdir); err == nil || r != nil || !strings.Contains(err.Error(), "bad magic") {
		if r != nil {
			r.Close()
		}
		t.Fatalf("RecoverSharded of ring-router manifests: opened %t, err %v; want nothing opened and bad magic", r != nil, err)
	}
}

// ringManifestMagic is the manifest magic of generations routed by the
// consistent-hash ring.
const ringManifestMagic uint64 = 0xFA57E2C05A4DED01

// resealManifests rewrites both manifests in dir under magic, with a
// valid CRC.
func resealManifests(t *testing.T, dir string, magic uint64) {
	t.Helper()
	for _, name := range manifestNames {
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		words := make([]uint64, len(raw)/8-1) // the last word is the CRC
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		words[0] = magic
		if err := os.WriteFile(path, sealWords(words...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMissingMetaFallsBackToPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg, infoA, _ := checkpointTwice(t, dir)

	// Simulate a crash before checkpoint B's commit rename, after the
	// rotation: manifest.prev names A, B's generation is whole on disk,
	// but its manifest is still manifest.ckpt.tmp. A stays in force.
	man := filepath.Join(dir, "manifest.ckpt")
	if err := os.Rename(man, man+".tmp"); err != nil {
		t.Fatal(err)
	}
	recoversA(t, cfg, dir, infoA)
}

func TestCheckpointGCKeepsReferencedIndexImages(t *testing.T) {
	dir := t.TempDir()
	checkpointTwice(t, dir)

	for _, want := range []string{
		filepath.Join(genDirName(1), shardDirName(0), "index.ckpt"), // named by manifest.prev
		filepath.Join(genDirName(2), shardDirName(0), "index.ckpt"), // named by manifest.ckpt
		"manifest.ckpt", "manifest.prev",
	} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("checkpoint file %s missing: %v", want, err)
		}
	}
	// No staging leftovers survive a committed checkpoint.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("stale staging file %s survived the checkpoint", e.Name())
		}
	}
}
