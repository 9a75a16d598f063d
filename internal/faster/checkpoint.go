package faster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

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
// The checkpoint directory holds "meta.ckpt" (the bracket addresses) and
// one fuzzy index image per checkpoint generation, "index.<t1>.ckpt",
// named by the t1 the meta records — so a meta always identifies exactly
// the image captured with it.
//
// Checkpoints are crash-atomic: the index image is staged as .tmp, fsynced
// and renamed into place (dir fsync), and only then does the meta commit
// by rename — meta.ckpt rotates to meta.prev, meta.ckpt.tmp renames over
// meta.ckpt, dir fsync. The meta rename is the single commit point: a
// crash anywhere leaves either the new meta (whose index image is already
// durable), the old meta, or no current meta with the old one intact as
// meta.prev. Recover tries meta.ckpt first and falls back to meta.prev on
// any read/CRC/magic failure; stale index generations are garbage-
// collected on the next successful checkpoint.
//
// The exactly-once session table (sessiontable.go) rides the same
// protocol: its snapshot is captured under the table's cut lock
// immediately before t2, staged as "sessions.<t1>.ckpt" with an fsync
// and rename, and referenced from the meta by length and CRC — so the
// meta rename atomically commits the index image, the log bracket and
// the session frontiers as one generation. A meta whose session table is
// missing, short or corrupt is treated as torn and recovery falls back
// to meta.prev; a crash between the session-table rename and the meta
// rename leaves the old generation in force, whose (lower) frontiers
// match the recovered log prefix, so retried clients re-apply exactly
// the operations recovery discarded.

const metaMagic uint64 = 0xFA57E2C0FFEE0001

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
//
// The body is split into prepare/cut/finish phases so a sharded
// coordinator (sharded.go) can hold every shard's cut lock across all
// the cuts — a single global serial barrier — while the expensive
// prepare and finish phases still run per shard in parallel.
func (s *Store) Checkpoint(dir string) (CheckpointInfo, error) {
	prep, err := s.checkpointPrepare(dir)
	if err != nil {
		return CheckpointInfo{}, err
	}
	s.sessions.cutMu.Lock()
	sessPayload, sessSnaps, t2 := s.checkpointCut()
	s.sessions.cutMu.Unlock()
	return s.checkpointFinish(prep, sessPayload, sessSnaps, t2)
}

// ckptPrep carries checkpoint state between the prepare and finish
// phases.
type ckptPrep struct {
	dir       string
	begin, t1 hlog.Address
	indexTmp  string
	indexPath string
}

// checkpointPrepare validates the store, captures the [Begin, t1)
// bracket and stages the fuzzy index image. No locks are held.
func (s *Store) checkpointPrepare(dir string) (ckptPrep, error) {
	if s.log.Mode() == hlog.ModeInMemory {
		return ckptPrep{}, errors.New("faster: in-memory stores cannot checkpoint (no device)")
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
	// clamped to the newest committed checkpoint's Begin, so the log
	// bytes in [Begin, shifted-begin) remain readable for recovery.
	begin := s.log.BeginAddress()
	t1 := s.log.TailAddress()
	indexPath := filepath.Join(dir, indexFileName(t1))
	indexTmp := indexPath + ".tmp"
	f, err := os.Create(indexTmp)
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
	return ckptPrep{dir: dir, begin: begin, t1: t1, indexTmp: indexTmp, indexPath: indexPath}, nil
}

// writeIndexCheckpoint serializes the fuzzy index image with read-cache
// redirections resolved: the cache is volatile, so a tagged entry is
// persisted as the underlying hlog chain head its cached record
// preserves. Holding rc.mu across the scan freezes fills and evictions
// (hit-path reads stay lock-free), so every tagged live entry's record is
// guaranteed dereferenceable — no entry is ever dropped for raciness.
func (s *Store) writeIndexCheckpoint(f *os.File) error {
	if s.rc == nil {
		return s.idx.WriteCheckpoint(f)
	}
	s.rc.mu.Lock()
	defer s.rc.mu.Unlock()
	return s.idx.WriteCheckpointMapped(f, func(addr uint64) (uint64, bool) {
		if !isCacheAddr(addr) {
			return addr, true
		}
		rec, ok := s.rc.recordAt(addr)
		if !ok {
			// Unreachable while rc.mu is held (eviction restores every
			// live entry before the offset drops below head); dropping the
			// entry is the conservative recovery answer if it ever fires.
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

// checkpointFinish waits for durability of the cut and commits the
// generation: index rename, session table, meta rotation. No locks are
// held; the flush wait is the slow part and runs fully concurrent with
// foreground operations.
func (s *Store) checkpointFinish(prep ckptPrep, sessPayload []byte, sessSnaps []sessSnap, t2 hlog.Address) (CheckpointInfo, error) {
	dir, begin, t1 := prep.dir, prep.begin, prep.t1
	indexTmp, indexPath := prep.indexTmp, prep.indexPath
	// The safe read-only shift needs every session to refresh; the log's
	// wait loop drains trigger actions for us. No guard is held here.
	if err := s.log.WaitUntilFlushed(t2, nil); err != nil {
		return CheckpointInfo{}, fmt.Errorf("faster: flush to t2: %w", err)
	}

	// Publish the index image under its final name before the meta can
	// reference it; the dir fsync orders the two commits on disk.
	if err := os.Rename(indexTmp, indexPath); err != nil {
		return CheckpointInfo{}, err
	}
	meta := ckptMeta{CheckpointInfo: CheckpointInfo{T1: t1, T2: t2, Begin: begin}}
	if len(sessPayload) > sessHeaderLen { // at least one entry
		meta.sessLen = uint64(len(sessPayload))
		meta.sessCRC = sessCRC(sessPayload)
		if err := writeSessionTable(filepath.Join(dir, sessionsFileName(t1)), sessPayload); err != nil {
			return CheckpointInfo{}, err
		}
	}
	if err := syncDir(dir); err != nil {
		return CheckpointInfo{}, err
	}

	info := meta.CheckpointInfo
	metaTmp := filepath.Join(dir, "meta.ckpt.tmp")
	if err := writeMeta(metaTmp, meta); err != nil {
		return CheckpointInfo{}, err
	}
	metaPath := filepath.Join(dir, "meta.ckpt")
	if _, err := os.Stat(metaPath); err == nil {
		if err := os.Rename(metaPath, filepath.Join(dir, "meta.prev")); err != nil {
			return CheckpointInfo{}, err
		}
	} else if !os.IsNotExist(err) {
		return CheckpointInfo{}, err
	}
	if err := os.Rename(metaTmp, metaPath); err != nil {
		return CheckpointInfo{}, err
	}
	if err := syncDir(dir); err != nil {
		return CheckpointInfo{}, err
	}
	// The committed meta pins recovery at info.Begin: device truncations
	// deferred because they would have outrun the previous checkpoint's
	// Begin can catch up to this one now. Best-effort — a failure here is
	// retried by the next truncation or checkpoint from the monotone
	// watermark.
	s.ckptBegin.Store(info.Begin)
	_ = s.log.ApplyDeviceTruncation(info.Begin)
	s.sessions.markDurable(sessSnaps)
	gcIndexGenerations(dir)
	return info, nil
}

// indexFileName names the fuzzy index image of the checkpoint generation
// bracketed from t1.
func indexFileName(t1 hlog.Address) string {
	return fmt.Sprintf("index.%016x.ckpt", t1)
}

// sessionsFileName names the session table of the checkpoint generation
// bracketed from t1.
func sessionsFileName(t1 hlog.Address) string {
	return fmt.Sprintf("sessions.%016x.ckpt", t1)
}

// sessHeaderLen is the size of an empty serialized session table (magic
// plus count); a payload this short carries no entries and is not
// written to disk.
const sessHeaderLen = 16

// writeSessionTable stages the serialized session table: write to .tmp,
// fsync, rename into place. The caller's dir fsync and the meta's
// length+CRC reference make the rename part of the checkpoint's single
// commit. Under the skip-serial-fsync mutation the fsync is elided and
// the staged bytes lose their tail — the seeded bug the linearize
// mutation gate proves red.
func writeSessionTable(path string, payload []byte) error {
	if mutationsEnabled && mutSkipSerialFsync() {
		payload = tornSessionPayload(payload)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if !(mutationsEnabled && mutSkipSerialFsync()) {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readSessionTable loads and verifies a checkpoint's session table
// against the length and CRC its meta recorded. Under the
// skip-serial-fsync mutation verification is elided (the naive reader),
// letting a torn table load as a shorter one.
func readSessionTable(path string, wantLen uint64, wantCRC uint32) ([]SessionState, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !(mutationsEnabled && mutSkipSerialFsync()) {
		if uint64(len(raw)) != wantLen {
			return nil, fmt.Errorf("faster: session table %d bytes, meta records %d", len(raw), wantLen)
		}
		if sessCRC(raw) != wantCRC {
			return nil, errors.New("faster: session table crc mismatch")
		}
	}
	return parseSessionTable(raw)
}

// gcIndexGenerations removes index images and session tables no meta
// references anymore — best-effort cleanup after a committed checkpoint;
// failures are ignored (an orphaned image costs space, never
// correctness).
func gcIndexGenerations(dir string) {
	keep := map[string]bool{}
	for _, m := range []string{"meta.ckpt", "meta.prev"} {
		if meta, err := readMeta(filepath.Join(dir, m)); err == nil {
			keep[indexFileName(meta.T1)] = true
			keep[sessionsFileName(meta.T1)] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if keep[name] {
			continue
		}
		gen := (len(name) > 6 && name[:6] == "index.") ||
			(len(name) > 9 && name[:9] == "sessions.")
		stale := (gen && (filepath.Ext(name) == ".ckpt" || filepath.Ext(name) == ".tmp")) ||
			name == "meta.ckpt.tmp"
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// syncDir fsyncs a directory so the renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ckptMeta is the on-disk checkpoint meta: the public bracket plus the
// session-table reference. Legacy 40-byte metas (pre-session-table) read
// back with sessLen == 0.
type ckptMeta struct {
	CheckpointInfo
	sessLen uint64
	sessCRC uint32
}

func writeMeta(path string, meta ckptMeta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	crc := crc32.NewIEEE()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		w.Write(b[:])
		crc.Write(b[:])
	}
	put(metaMagic)
	put(meta.T1)
	put(meta.T2)
	put(meta.Begin)
	put(meta.sessLen)
	put(uint64(meta.sessCRC))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(crc.Sum32()))
	w.Write(b[:])
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

func readMeta(path string) (ckptMeta, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ckptMeta{}, err
	}
	if len(raw) != 40 && len(raw) != 56 {
		return ckptMeta{}, errors.New("faster: bad checkpoint meta size")
	}
	body := raw[:len(raw)-8]
	crc := crc32.ChecksumIEEE(body)
	if binary.LittleEndian.Uint64(raw[len(raw)-8:]) != uint64(crc) {
		return ckptMeta{}, errors.New("faster: checkpoint meta crc mismatch")
	}
	if binary.LittleEndian.Uint64(raw) != metaMagic {
		return ckptMeta{}, errors.New("faster: checkpoint meta bad magic")
	}
	meta := ckptMeta{CheckpointInfo: CheckpointInfo{
		T1:    binary.LittleEndian.Uint64(raw[8:]),
		T2:    binary.LittleEndian.Uint64(raw[16:]),
		Begin: binary.LittleEndian.Uint64(raw[24:]),
	}}
	if len(raw) == 56 {
		meta.sessLen = binary.LittleEndian.Uint64(raw[32:])
		meta.sessCRC = uint32(binary.LittleEndian.Uint64(raw[40:]))
	}
	return meta, nil
}

// loadCheckpointPair reads a meta file, the index image it references,
// and the session table it references (empty when the generation
// persisted none). A missing, short or corrupt session table fails the
// whole generation — the caller falls back to the previous one.
func loadCheckpointPair(dir, metaName string) (CheckpointInfo, *index.Index, []SessionState, error) {
	meta, err := readMeta(filepath.Join(dir, metaName))
	if err != nil {
		return CheckpointInfo{}, nil, nil, err
	}
	var sess []SessionState
	if meta.sessLen > 0 {
		sess, err = readSessionTable(filepath.Join(dir, sessionsFileName(meta.T1)), meta.sessLen, meta.sessCRC)
		if err != nil {
			return CheckpointInfo{}, nil, nil, fmt.Errorf("faster: session table recovery: %w", err)
		}
	}
	f, err := os.Open(filepath.Join(dir, indexFileName(meta.T1)))
	if err != nil {
		return CheckpointInfo{}, nil, nil, err
	}
	idx, err := index.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		return CheckpointInfo{}, nil, nil, fmt.Errorf("faster: index recovery: %w", err)
	}
	return meta.CheckpointInfo, idx, sess, nil
}

// loadCheckpoint loads the newest recoverable checkpoint: the current meta
// if it and its index image are intact, else the previous generation kept
// as meta.prev (a crash can tear at most the in-flight generation).
func loadCheckpoint(dir string) (CheckpointInfo, *index.Index, []SessionState, error) {
	info, idx, sess, err := loadCheckpointPair(dir, "meta.ckpt")
	if err == nil {
		return info, idx, sess, nil
	}
	if pinfo, pidx, psess, perr := loadCheckpointPair(dir, "meta.prev"); perr == nil {
		return pinfo, pidx, psess, nil
	}
	return CheckpointInfo{}, nil, nil, err
}

// ReadCheckpointSessions reads the committed session table of the
// newest readable checkpoint generation in dir without opening the log
// — the offline view `faster-cli sessions` prints for operators
// deciding which clients may resume. A torn or corrupt current
// generation falls back to meta.prev, mirroring Recover's meta
// preference (Recover additionally requires the generation's index
// image, so in the rare case of a torn index the two can disagree by
// one generation). A nil slice with nil error means the generation
// checkpointed no sessions.
func ReadCheckpointSessions(dir string) ([]SessionState, error) {
	read := func(metaName string) ([]SessionState, error) {
		meta, err := readMeta(filepath.Join(dir, metaName))
		if err != nil {
			return nil, err
		}
		if meta.sessLen == 0 {
			return nil, nil
		}
		return readSessionTable(filepath.Join(dir, sessionsFileName(meta.T1)), meta.sessLen, meta.sessCRC)
	}
	sess, err := read("meta.ckpt")
	if err == nil {
		return sess, nil
	}
	if psess, perr := read("meta.prev"); perr == nil {
		return psess, nil
	}
	return nil, err
}

// Recover opens a store from a checkpoint directory and the device that
// holds the log contents. cfg plays the same role as in Open; its Device
// must contain the flushed log (for the built-in device types, reopen the
// same file or reuse the same Mem device). A torn or corrupt current
// checkpoint falls back to the previous generation (meta.prev).
func Recover(cfg Config, dir string) (*Store, error) {
	info, idx, sess, err := loadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	return recoverFrom(cfg, info, idx, sess)
}

// recoverFrom opens a store from an already-loaded checkpoint
// generation (shared by Recover and the sharded per-shard recovery).
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

// RebuildIndex reconstructs the entire hash index from the log (the
// "technically we can rebuild the entire hash-index from the HybridLog"
// observation of §6.5). It serves as the recovery oracle in tests and as
// a last-resort repair path. The store must be quiesced.
func (s *Store) RebuildIndex() error {
	idx, err := index.New(index.Config{InitialBuckets: s.cfg.IndexBuckets, TagBits: s.cfg.TagBits})
	if err != nil {
		return err
	}
	err = s.Scan(ScanOptions{}, func(r ScanRecord) bool {
		h := hashKey(r.Key)
		e, cur := idx.FindOrCreateEntry(h)
		for cur < r.Address {
			if e.CompareAndSwapAddress(cur, r.Address) {
				break
			}
			e, cur = idx.FindOrCreateEntry(h)
		}
		return true
	})
	if err != nil {
		return err
	}
	s.idx = idx
	return nil
}
