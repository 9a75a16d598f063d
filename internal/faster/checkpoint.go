package faster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/hlog"
	"repro/internal/index"
)

// Checkpointing and recovery (§6.5). FASTER treats the HybridLog itself as
// the write-ahead log:
//
//  1. record t1 = tail address
//  2. write a fuzzy checkpoint of the hash index (no read locks; §3.3)
//  3. record t2 = tail address
//  4. shift the read-only offset to t2 and wait for the flush, making
//     every record below t2 durable
//
// All index mutations during (1)-(3) correspond to records in [t1, t2) on
// the log, because in-place updates never touch the index. Recovery loads
// the fuzzy index image and replays exactly that window, raising each
// affected entry to its newest record; the result is a consistent index
// as of t2.
//
// Every checkpoint, of a flat Store or of a ShardedStore at any shard
// count, has one layout (a flat Store is a one-shard ensemble):
//
//	dir/manifest.ckpt            the commit: seq and every shard's t1
//	dir/manifest.prev            the previous commit
//	dir/gen-<seq>/shard-<i>/
//	    index.ckpt               the fuzzy index image
//	    sessions.ckpt            the session table (absent when empty)
//	    meta.ckpt                t1, t2, Begin, the table's length and CRC
//
// The manifest.ckpt rename is the only commit point. Nothing references a
// generation directory before its manifest does, so its files are written
// in place and fsynced, then each shard directory, the generation
// directory and dir are fsynced. Only then is manifest.ckpt.tmp written
// and fsynced, a readable manifest.ckpt rotated to manifest.prev, the
// tmp renamed over manifest.ckpt and dir fsynced. A crash anywhere leaves
// the old manifest in force. A generation's seq is one past the newest
// readable manifest, so a failed attempt's partial directory is reused
// (cleared first) by the next checkpoint; generations no manifest names
// are removed after each commit. Concurrent checkpoints into one
// directory are not supported.
//
// Recovery is all-or-nothing per generation: manifest.ckpt's generation
// loads only if every shard's meta, session table and index image check
// out against it; otherwise the whole ensemble recovers manifest.prev's.
// Mixing generations across shards would tear the global serial barrier
// (sharded.go).
//
// The exactly-once session table (sessiontable.go) rides the same
// protocol: its snapshot is captured under the table's cut lock
// immediately before t2 and referenced from the shard's meta by length
// and CRC, so the manifest rename commits the index image, the log
// bracket and the session frontiers as one generation. A torn table
// fails its generation, and the previous one's (lower) frontiers match
// the log prefix recovered with them, so retried clients re-apply
// exactly the operations recovery discarded.

// manifestMagic also names the shard router: a shard's checkpoint holds
// the keys ShardedStore.shardFor sent it, so a generation written under
// another router (0xFA57E2C05A4DED01 was the consistent-hash ring) fails
// to parse rather than load with its keys on the wrong shards. A plain
// store's generations under the old magic are refused too, on purpose:
// the magic is the manifest format's one version, and the parser reads
// exactly one.
const (
	metaMagic     uint64 = 0xFA57E2C0FFEE0001
	manifestMagic uint64 = 0xFA57E2C05A4DED02
)

// manifestNames lists the manifests recovery tries, newest first.
var manifestNames = [...]string{"manifest.ckpt", "manifest.prev"}

// CheckpointInfo describes a completed checkpoint.
type CheckpointInfo struct {
	// T1 and T2 bracket the fuzzy index capture on the log.
	T1, T2 hlog.Address
	// Begin is the log truncation point at checkpoint time.
	Begin hlog.Address
}

// Checkpoint writes a consistent checkpoint into dir (created if needed).
// It runs without quiescing the store: concurrent operations proceed, and
// their effects either fall below t2 (captured) or land after it. The
// calling goroutine must not hold a session.
func (s *Store) Checkpoint(dir string) (CheckpointInfo, error) {
	_, infos, err := checkpoint([]*Store{s}, dir)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return infos[0], nil
}

func genDirName(seq uint64) string { return fmt.Sprintf("gen-%06d", seq) }
func shardDirName(i int) string    { return fmt.Sprintf("shard-%03d", i) }
func shardGenDir(dir string, seq uint64, i int) string {
	return filepath.Join(dir, genDirName(seq), shardDirName(i))
}

// checkpoint writes one generation of stores (shard i into
// gen-<seq>/shard-<i>/) and commits it by the manifest rename. The
// prepare and finish phases run per shard in parallel; the serial cuts
// are taken under one global barrier, every shard's cut lock held at
// once.
func checkpoint(stores []*Store, dir string) (uint64, []CheckpointInfo, error) {
	n := len(stores)
	cur, curErr := readManifest(filepath.Join(dir, manifestNames[0]))
	prev, _ := readManifest(filepath.Join(dir, manifestNames[1]))
	seq := max(cur.seq, prev.seq) + 1
	genDir := filepath.Join(dir, genDirName(seq))
	if err := os.RemoveAll(genDir); err != nil {
		return 0, nil, err
	}

	// Phase 1 — prepare: the [Begin, t1) bracket and the index images.
	// Each shard's device truncation is pinned below its Begin sample
	// until the generation commits or fails.
	releases := make([]func(), n)
	for i, s := range stores {
		releases[i] = s.pinDeviceTruncation()
	}
	defer func() {
		for _, release := range releases {
			release()
		}
	}()
	preps := make([]ckptPrep, n)
	if err := inParallel(n, "checkpoint prepare", func(i int) (err error) {
		preps[i], err = stores[i].checkpointPrepare(shardGenDir(dir, seq, i))
		return err
	}); err != nil {
		return 0, nil, err
	}

	// Phase 2 — the global serial barrier: acquire every shard's cut
	// lock in ascending order (stamped windows acquire in the same
	// order, so no hold-and-wait cycle exists), cut all shards, release.
	// While all locks are held no stamped window is open anywhere, so
	// the set of committed serials is a per-connection prefix and every
	// cut covers exactly that prefix's records on its shard.
	payloads := make([][]byte, n)
	snaps := make([][]sessSnap, n)
	t2s := make([]hlog.Address, n)
	for _, s := range stores {
		s.sessions.cutMu.Lock()
	}
	for i, s := range stores {
		payloads[i], snaps[i], t2s[i] = s.checkpointCut()
	}
	for i := n - 1; i >= 0; i-- {
		stores[i].sessions.cutMu.Unlock()
	}

	// Phase 3 — finish: flush to t2, write the session table and meta.
	infos := make([]CheckpointInfo, n)
	if err := inParallel(n, "checkpoint", func(i int) (err error) {
		infos[i], err = stores[i].checkpointFinish(preps[i], payloads[i], t2s[i])
		return err
	}); err != nil {
		return 0, nil, err
	}

	if mutationsEnabled && mutSkipShardFsync() {
		// The seeded bug: one shard's generation meta was never fsynced
		// and the crash the manifest survived tore it. Tear the
		// highest-index shard that checkpointed session frontiers (the
		// shard whose regression the exactly-once checker can see).
		victim := n - 1
		for i := n - 1; i >= 0; i-- {
			if len(payloads[i]) > sessHeaderLen {
				victim = i
				break
			}
		}
		tearShardMeta(filepath.Join(shardGenDir(dir, seq, victim), "meta.ckpt"))
	}

	// Phase 4 — commit. Every shard's bracket must be covered by its
	// durable log, and the generation's directory entries durable,
	// before the manifest may name it.
	man := manifest{seq: seq, t1s: make([]hlog.Address, n)}
	for i, info := range infos {
		if flushed := stores[i].log.FlushedUntilAddress(); !(info.Begin <= info.T1 && info.T1 <= info.T2 && info.T2 <= flushed) {
			return 0, nil, fmt.Errorf("faster: shard %d checkpoint bracket Begin %#x T1 %#x T2 %#x outruns the flushed log %#x",
				i, info.Begin, info.T1, info.T2, flushed)
		}
		man.t1s[i] = info.T1
	}
	if err := syncDir(genDir); err != nil {
		return 0, nil, err
	}
	if err := syncDir(dir); err != nil {
		return 0, nil, err
	}
	manPath := filepath.Join(dir, manifestNames[0])
	if err := writeFileSync(manPath+".tmp", man.encode()); err != nil {
		return 0, nil, err
	}
	if curErr == nil {
		if err := os.Rename(manPath, filepath.Join(dir, manifestNames[1])); err != nil {
			return 0, nil, err
		}
	}
	if err := os.Rename(manPath+".tmp", manPath); err != nil {
		return 0, nil, err
	}
	if err := syncDir(dir); err != nil {
		return 0, nil, err
	}

	for i, s := range stores {
		// The committed generation pins recovery at its Begin: device
		// truncations deferred because they would have outrun the
		// previous checkpoint's Begin can catch up to this one now.
		// Best-effort — a failure here is retried by the next truncation
		// or checkpoint from the monotone watermark.
		s.ckptBegin.Store(infos[i].Begin)
		releases[i]()
		_ = s.log.ApplyDeviceTruncation(s.deviceTruncateLimit(infos[i].Begin))
		s.sessions.markDurable(snaps[i])
	}
	gcGenerations(dir)
	return seq, infos, nil
}

// inParallel runs fn for every shard at once and returns the error of
// the lowest shard that failed.
func inParallel(n int, what string, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("faster: shard %d %s: %w", i, what, err)
		}
	}
	return nil
}

// ckptPrep carries checkpoint state between the prepare and finish
// phases.
type ckptPrep struct {
	dir       string
	begin, t1 hlog.Address
}

// checkpointPrepare validates the store, captures the [Begin, t1)
// bracket and writes the fuzzy index image into dir. No locks are held.
func (s *Store) checkpointPrepare(dir string) (ckptPrep, error) {
	// A device.Null keeps none of the pages the checkpoint would flush:
	// the manifest would commit a log prefix that no longer exists, and
	// every read below the recovered tail would fail.
	if _, ok := s.cfg.Device.(*device.Null); ok {
		return ckptPrep{}, errors.New("faster: cannot checkpoint a store over device.Null (it keeps no writes)")
	}
	// A checkpoint must advance the durability watermark; with the write
	// path gone it can only hang on the flush, so fail fast.
	if err := s.checkWritable(); err != nil {
		return ckptPrep{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ckptPrep{}, err
	}

	// Capture Begin before t1, not at meta-write time. A concurrent
	// Compact can advance the begin address mid-checkpoint, after its
	// copy-forward records were appended — and if the shift lands between
	// our t2 capture and the meta write, those copies sit above t2 (not
	// covered by this checkpoint) while a late-sampled Begin would tell
	// recovery to discard their sources below it: every key whose only
	// version lived in the compacted prefix would vanish. A begin shift
	// that completed before t1 is safe (its copies are below t1 and the
	// index already points at them), and one that completes after this
	// sample merely makes our Begin conservative: device truncation is
	// held at the pin checkpoint took before this sample until the
	// generation commits, and at the newest committed checkpoint's Begin
	// after, so the log bytes in [Begin, shifted-begin) remain readable
	// for recovery.
	begin := s.log.BeginAddress()
	t1 := s.log.TailAddress()
	f, err := os.Create(filepath.Join(dir, "index.ckpt"))
	if err != nil {
		return ckptPrep{}, err
	}
	if err := s.writeIndexCheckpoint(f); err != nil {
		f.Close()
		return ckptPrep{}, fmt.Errorf("faster: index checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return ckptPrep{}, err
	}
	if err := f.Close(); err != nil {
		return ckptPrep{}, err
	}
	return ckptPrep{dir: dir, begin: begin, t1: t1}, nil
}

// writeIndexCheckpoint serializes the fuzzy index image with read-cache
// redirections resolved: the cache is volatile, so a tagged entry is
// persisted as the underlying hlog chain head its cached record
// preserves. A guard held from each entry's read to its dereference keeps
// the record's frame from being reopened under the scan; it refreshes
// only between entries. A tagged entry whose page was already restored is
// read again: it holds the underlying address by then, or will once its
// late filler moves it back.
func (s *Store) writeIndexCheckpoint(f *os.File) error {
	if s.rc == nil {
		return s.idx.WriteCheckpoint(f)
	}
	g := s.em.Acquire()
	defer g.Release()
	n := 0
	return s.idx.WriteCheckpointMapped(f, func(addr uint64) (uint64, bool) {
		if n++; n%256 == 0 {
			// The next entry is read after this refresh, and this one's
			// address needs no dereference.
			g.Refresh()
		}
		if !isCacheAddr(addr) {
			return addr, true
		}
		rec, ok := s.rc.recordAt(addr)
		if !ok {
			return 0, false
		}
		return uint64(rec.prev()), true
	})
}

// checkpointCut is the serial cut: snapshot the session frontiers, then
// capture t2. The caller must hold s.sessions.cutMu exclusively — with
// the write lock held no stamped window is open, so every snapshotted
// serial's record lies below the tail here (≤ t2, durable after the
// flush); any serial admitted after the lock releases publishes at or
// above t2 and is discarded by a recovery of this checkpoint — exactly
// the frontier contract recovery promises reconnecting clients.
func (s *Store) checkpointCut() ([]byte, []sessSnap, hlog.Address) {
	sessPayload, sessSnaps := s.sessions.serialize()
	t2 := s.log.ShiftReadOnlyToTail()
	return sessPayload, sessSnaps, t2
}

// checkpointFinish waits for durability of the cut and writes the
// shard's session table and meta, then fsyncs its directory. No locks
// are held; the flush wait is the slow part and runs fully concurrent
// with foreground operations.
func (s *Store) checkpointFinish(prep ckptPrep, sessPayload []byte, t2 hlog.Address) (CheckpointInfo, error) {
	// The safe read-only shift needs every session to refresh; the log's
	// wait loop drains trigger actions for us. No guard is held here.
	if err := s.log.WaitUntilFlushed(t2, nil); err != nil {
		return CheckpointInfo{}, fmt.Errorf("faster: flush to t2: %w", err)
	}
	// A completed flush may still sit in a volatile cache; the meta
	// and session table below promise that [Begin, T2) survives. The
	// skip-log-sync seed leaves it there.
	if !(mutationsEnabled && mutSkipLogSync()) {
		if err := s.log.Sync(); err != nil {
			return CheckpointInfo{}, fmt.Errorf("faster: sync log to t2: %w", err)
		}
	}
	meta := ckptMeta{CheckpointInfo: CheckpointInfo{T1: prep.t1, T2: t2, Begin: prep.begin}}
	if len(sessPayload) > sessHeaderLen { // at least one entry
		meta.sessLen = uint64(len(sessPayload))
		meta.sessCRC = sessCRC(sessPayload)
		if mutationsEnabled && mutSkipSerialFsync() {
			// The seeded bug: the table skipped its fsync and the crash
			// took its tail.
			sessPayload = tornSessionPayload(sessPayload)
		}
		if err := writeFileSync(filepath.Join(prep.dir, "sessions.ckpt"), sessPayload); err != nil {
			return CheckpointInfo{}, err
		}
	}
	if err := writeFileSync(filepath.Join(prep.dir, "meta.ckpt"), meta.encode()); err != nil {
		return CheckpointInfo{}, err
	}
	if err := syncDir(prep.dir); err != nil {
		return CheckpointInfo{}, err
	}
	return meta.CheckpointInfo, nil
}

// sessHeaderLen is the size of an empty serialized session table (magic
// plus count); a payload this short carries no entries and is not
// written to disk.
const sessHeaderLen = 16

// writeFileSync creates path holding data and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so the entries created inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// gcGenerations removes generation directories no manifest references —
// best-effort cleanup after a committed checkpoint; failures are ignored
// (an orphaned generation costs space, never correctness).
func gcGenerations(dir string) {
	keep := map[string]bool{}
	for _, name := range manifestNames {
		if man, err := readManifest(filepath.Join(dir, name)); err == nil {
			keep[genDirName(man.seq)] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() && len(name) > 4 && name[:4] == "gen-" && !keep[name] {
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
}

// sealWords encodes words little-endian followed by their CRC-32 as one
// more word: the format of both the meta and the manifest.
func sealWords(words ...uint64) []byte {
	b := make([]byte, 0, 8*(len(words)+1))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return binary.LittleEndian.AppendUint64(b, uint64(crc32.ChecksumIEEE(b)))
}

// openWords checks raw's CRC trailer and leading magic and returns the
// words between them. Nothing is sized from the contents.
func openWords(raw []byte, magic uint64, what string) ([]uint64, error) {
	if len(raw) < 16 || len(raw)%8 != 0 {
		return nil, fmt.Errorf("faster: bad %s size %d", what, len(raw))
	}
	body := raw[:len(raw)-8]
	if binary.LittleEndian.Uint64(raw[len(body):]) != uint64(crc32.ChecksumIEEE(body)) {
		return nil, fmt.Errorf("faster: %s crc mismatch", what)
	}
	if binary.LittleEndian.Uint64(body) != magic {
		return nil, fmt.Errorf("faster: %s bad magic", what)
	}
	words := make([]uint64, len(body)/8-1)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(body[8+8*i:])
	}
	return words, nil
}

// ckptMeta is one shard's generation meta: the public bracket plus the
// session-table reference.
type ckptMeta struct {
	CheckpointInfo
	sessLen uint64
	sessCRC uint32
}

func (m ckptMeta) encode() []byte {
	return sealWords(metaMagic, m.T1, m.T2, m.Begin, m.sessLen, uint64(m.sessCRC))
}

// parseMeta parses a meta. A CRC-valid meta whose bracket violates
// Begin ≤ T1 ≤ T2 is torn: no writer commits one.
func parseMeta(raw []byte) (ckptMeta, error) {
	w, err := openWords(raw, metaMagic, "checkpoint meta")
	if err != nil {
		return ckptMeta{}, err
	}
	if len(w) != 5 || w[4] > math.MaxUint32 {
		return ckptMeta{}, errors.New("faster: bad checkpoint meta size")
	}
	m := ckptMeta{CheckpointInfo: CheckpointInfo{T1: w[0], T2: w[1], Begin: w[2]}, sessLen: w[3], sessCRC: uint32(w[4])}
	if !(m.Begin <= m.T1 && m.T1 <= m.T2) {
		return ckptMeta{}, fmt.Errorf("faster: checkpoint meta bracket Begin %#x T1 %#x T2 %#x out of order", m.Begin, m.T1, m.T2)
	}
	return m, nil
}

// manifest is the commit record: the generation's seq and each shard's
// T1, which its meta must repeat.
type manifest struct {
	seq uint64
	t1s []hlog.Address
}

func (m manifest) encode() []byte {
	return sealWords(append([]uint64{manifestMagic, m.seq, uint64(len(m.t1s))}, m.t1s...)...)
}

func parseManifest(raw []byte) (manifest, error) {
	w, err := openWords(raw, manifestMagic, "manifest")
	if err != nil {
		return manifest{}, err
	}
	if len(w) < 2 || w[1] != uint64(len(w)-2) {
		return manifest{}, errors.New("faster: manifest shard count mismatch")
	}
	return manifest{seq: w[0], t1s: w[2:]}, nil
}

// readManifest reads and parses a manifest file; on any error it returns
// the zero manifest (seq 0).
func readManifest(path string) (manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return manifest{}, err
	}
	return parseManifest(raw)
}

// readShard reads shard i of man's generation: its meta, which must
// repeat the manifest's T1, and its session table, verified against the
// length and CRC the meta records. Under the skip-serial-fsync mutation
// verification is elided (the naive reader), letting a torn table load
// as a shorter one.
func readShard(dir string, man manifest, i int) (ckptMeta, []SessionState, error) {
	sdir := shardGenDir(dir, man.seq, i)
	raw, err := os.ReadFile(filepath.Join(sdir, "meta.ckpt"))
	if err != nil {
		return ckptMeta{}, nil, err
	}
	meta, err := parseMeta(raw)
	if err != nil {
		return ckptMeta{}, nil, err
	}
	if meta.T1 != man.t1s[i] {
		return ckptMeta{}, nil, fmt.Errorf("faster: shard %d meta T1 %#x, manifest records %#x", i, meta.T1, man.t1s[i])
	}
	if meta.sessLen == 0 {
		return meta, nil, nil
	}
	raw, err = os.ReadFile(filepath.Join(sdir, "sessions.ckpt"))
	if err != nil {
		return ckptMeta{}, nil, err
	}
	if !(mutationsEnabled && mutSkipSerialFsync()) {
		if uint64(len(raw)) != meta.sessLen {
			return ckptMeta{}, nil, fmt.Errorf("faster: session table %d bytes, meta records %d", len(raw), meta.sessLen)
		}
		if sessCRC(raw) != meta.sessCRC {
			return ckptMeta{}, nil, errors.New("faster: session table crc mismatch")
		}
	}
	sess, err := parseSessionTable(raw)
	if err != nil {
		return ckptMeta{}, nil, err
	}
	return meta, sess, nil
}

// recoverShard reopens shard i of man's generation from its files and
// cfg's device.
func recoverShard(cfg Config, dir string, man manifest, i int) (*Store, error) {
	meta, sess, err := readShard(dir, man, i)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(shardGenDir(dir, man.seq, i), "index.ckpt"))
	if err != nil {
		return nil, err
	}
	idx, err := index.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("faster: index recovery: %w", err)
	}
	return recoverFrom(cfg, meta.CheckpointInfo, idx, sess)
}

// recoverGeneration reopens every shard of man's generation, or none.
func recoverGeneration(dir string, man manifest, n int, shardCfg func(int) Config) ([]*Store, error) {
	if len(man.t1s) != n {
		return nil, fmt.Errorf("faster: manifest has %d shards, config %d", len(man.t1s), n)
	}
	stores := make([]*Store, 0, n)
	for i := range n {
		s, err := recoverShard(shardCfg(i), dir, man, i)
		if err != nil {
			for _, s := range stores {
				s.Close()
			}
			return nil, fmt.Errorf("faster: shard %d of generation %d: %w", i, man.seq, err)
		}
		stores = append(stores, s)
	}
	return stores, nil
}

// recoverStores reopens the n shards of the newest generation in dir
// that recovers whole: manifest.ckpt's, else manifest.prev's.
func recoverStores(dir string, n int, shardCfg func(int) Config) ([]*Store, error) {
	var firstErr error
	for _, name := range manifestNames {
		man, err := readManifest(filepath.Join(dir, name))
		if err == nil {
			var stores []*Store
			if stores, err = recoverGeneration(dir, man, n, shardCfg); err == nil {
				return stores, nil
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("faster: recovery: %w", firstErr)
}

// ReadCheckpointSessions reads the committed exactly-once session state
// of the newest generation in dir whose every shard's table checks out,
// without opening the log — the offline view `faster-cli sessions`
// prints for operators deciding which clients may resume. Per GUID it
// reports the connection frontier, the maximum acked serial over shards,
// sorted by GUID. Recover additionally requires the generation's index
// images, so in the rare case of a torn image the two can disagree by
// one generation. An empty result with nil error means the generation
// checkpointed no sessions.
func ReadCheckpointSessions(dir string) ([]SessionState, error) {
	var firstErr error
	for _, name := range manifestNames {
		out, err := readSessions(dir, name)
		if err == nil {
			return out, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

func readSessions(dir, manifestName string) ([]SessionState, error) {
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	byGUID := map[string]SessionState{}
	for i := range man.t1s {
		_, states, err := readShard(dir, man, i)
		if err != nil {
			return nil, fmt.Errorf("faster: shard %d sessions: %w", i, err)
		}
		for _, st := range states {
			if cur, ok := byGUID[st.GUID]; !ok || st.Acked > cur.Acked {
				byGUID[st.GUID] = st
			}
		}
	}
	out := make([]SessionState, 0, len(byGUID))
	for _, st := range byGUID {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GUID < out[j].GUID })
	return out, nil
}

// Recover opens a store from a checkpoint directory and the device that
// holds the log contents. cfg plays the same role as in Open; its Device
// must contain the flushed log (for the built-in device types, reopen the
// same file or reuse the same Mem device). A torn or corrupt current
// generation falls back to the previous one (manifest.prev).
func Recover(cfg Config, dir string) (*Store, error) {
	stores, err := recoverStores(dir, 1, func(int) Config { return cfg })
	if err != nil {
		return nil, err
	}
	return stores[0], nil
}

// recoverFrom opens a store from an already-loaded checkpoint
// generation.
func recoverFrom(cfg Config, info CheckpointInfo, idx *index.Index, sess []SessionState) (*Store, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	s, err := Open(cfg)
	if err != nil {
		idx.Close()
		return nil, err
	}
	s.idx.Close()
	s.idx = idx
	// The read cache is volatile: no checkpoint image may reinstate a
	// cache-tagged address (the writer maps them to the underlying chain
	// head; this scrub is defense in depth against images written before
	// that mapping existed). A tagged address's low bits are cache offsets,
	// meaningless after restart, so the entry is dropped outright.
	idx.UpdateAddresses(func(a uint64) uint64 {
		if isCacheAddr(a) {
			return 0
		}
		return a
	})
	if err := s.log.RecoverTo(info.Begin, info.T2); err != nil {
		s.Close()
		return nil, err
	}
	// Future device truncations may free everything below this
	// checkpoint's Begin without waiting for the next one.
	s.ckptBegin.Store(info.Begin)
	// Restore the exactly-once session frontiers this checkpoint
	// committed: the recovered prefix contains precisely the operations
	// at or below each session's frontier, so reconnecting clients can
	// resume their serial streams from frontier+1.
	s.sessions.load(sess)

	// Repair the fuzzy index: replay [t1, t2). Records in the window are
	// newer than anything the fuzzy capture could have seen for their
	// chain, except entries captured late in the pass — raising each
	// entry to the maximum address handles both (§6.5).
	err = s.Scan(ScanOptions{From: info.T1, To: info.T2}, func(r ScanRecord) bool {
		h := hashKey(r.Key)
		e, cur := s.idx.FindOrCreateEntry(h)
		for cur < r.Address {
			if e.CompareAndSwapAddress(cur, r.Address) {
				break
			}
			e, cur = s.idx.FindOrCreateEntry(h)
		}
		return true
	})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("faster: log replay: %w", err)
	}
	return s, nil
}
