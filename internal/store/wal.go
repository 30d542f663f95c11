package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// On-disk layout of a file-backed store directory:
//
//	events.log  CRC-framed append-only event records (fsync'd per append)
//	snapshot    one CRC-framed record holding the compacted state
//	lock        flock'd single-writer guard (content is advisory)
//
// Record framing: a fixed 8-byte header — little-endian uint32 payload
// length, then CRC-32C (Castagnoli) of the payload — followed by the JSON
// payload. The CRC makes bit rot detectable; the length makes a
// crash-truncated tail (the normal SIGKILL artefact) distinguishable from
// interior damage: a frame that runs past EOF is a torn tail and recovery
// stops cleanly before it, while a checksum mismatch with further data
// behind it is ErrCorrupt.
const (
	logName  = "events.log"
	snapName = "snapshot"
	lockName = "lock"

	frameHeaderLen = 8

	snapshotVersion = 1
)

// Per-record size bounds, enforced symmetrically: the writer rejects a
// record before it is persisted (Store.append, Store.compactLocked), so a
// length field beyond the bound on read is always corruption, never an
// oversized record a past writer legitimately produced. Vars, not consts,
// so tests can shrink them.
var (
	// maxRecord bounds one event record (a submit carries the full netlist
	// inline, so the bound is generous).
	maxRecord uint32 = 64 << 20
	// maxSnapshot bounds the snapshot record, which aggregates every
	// retained job and so can legitimately dwarf any single event.
	// Compaction evicts terminal jobs until the snapshot fits (see
	// compactLocked), so this bound is never exceeded on disk.
	maxSnapshot uint32 = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// snapshot is the compacted state written at each log truncation.
type snapshot struct {
	V       int    `json:"v"`
	LastSeq uint64 `json:"last_seq"`
	NextID  uint64 `json:"next_id"`
	Jobs    []Job  `json:"jobs"`
}

// wal is the append-only persistence seam behind a Store.
type wal interface {
	// Append durably writes one framed record.
	Append(rec []byte) error
	// Compact durably replaces the snapshot with snap and truncates the log.
	Compact(snap []byte) error
	// Size reports the current on-disk log and snapshot byte sizes (framed),
	// zero for backends with no durable footprint.
	Size() (logBytes, snapBytes int64)
	Close() error
}

// memWAL is the test/in-memory backend: nothing persists.
type memWAL struct{}

func (memWAL) Append([]byte) error  { return nil }
func (memWAL) Compact([]byte) error { return nil }
func (memWAL) Size() (int64, int64) { return 0, 0 }
func (memWAL) Close() error         { return nil }

// frame wraps payload in the length+CRC header.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// readFrames streams the framed records of r into fn, rejecting any record
// whose declared length exceeds limit. A frame that cannot complete before
// EOF — short header, length running past the end, or a checksum mismatch on
// the final bytes — is reported as a torn tail and ends the scan cleanly; a
// bad frame with data after it is ErrCorrupt.
func readFrames(r io.Reader, limit uint32, fn func(payload []byte) error) (torn bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return false, fmt.Errorf("store: reading log: %w", err)
	}
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return true, nil
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > limit {
			return false, fmt.Errorf("%w: record at offset %d declares %d bytes (max %d)", ErrCorrupt, off, length, limit)
		}
		end := off + frameHeaderLen + int(length)
		if end > len(data) {
			return true, nil
		}
		payload := data[off+frameHeaderLen : end]
		if crc32.Checksum(payload, crcTable) != want {
			if end == len(data) {
				// The final frame: a torn write and a flipped bit are
				// indistinguishable here, and recovery keeps the last valid
				// prefix either way.
				return true, nil
			}
			return false, fmt.Errorf("%w: checksum mismatch in record at offset %d", ErrCorrupt, off)
		}
		if err := fn(payload); err != nil {
			return false, err
		}
		off = end
	}
	return false, nil
}

// fileWAL is the production backend: one flock-guarded directory.
type fileWAL struct {
	dir      string
	f        *os.File // events.log, O_APPEND
	lock     *os.File
	noSync   bool
	logSize  int64 // framed bytes in events.log
	snapSize int64 // framed bytes in the snapshot file
}

// openFileWAL takes the single-writer flock on dir's lock file without
// blocking, then opens the event log for appending. Exactly one process (or
// one open file description within a process) holds the flock at a time, and
// the kernel releases it the instant the holder dies; a contender gets the
// typed ErrNotOwner.
func openFileWAL(dir string) (*fileWAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("%s is held by another process (%v): %w", dir, err, ErrNotOwner)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: opening event log: %w", err)
	}
	w := &fileWAL{dir: dir, f: f, lock: lock}
	if fi, serr := f.Stat(); serr == nil {
		w.logSize = fi.Size()
	}
	if fi, serr := os.Stat(filepath.Join(dir, snapName)); serr == nil {
		w.snapSize = fi.Size()
	}
	return w, nil
}

func (w *fileWAL) Append(rec []byte) error {
	buf := frame(rec)
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.logSize += int64(len(buf))
	if w.noSync {
		return nil
	}
	return w.f.Sync()
}

// Size reports framed bytes on disk. Serialized by the owning Store's mutex,
// like every other wal call.
func (w *fileWAL) Size() (int64, int64) { return w.logSize, w.snapSize }

// Compact writes the snapshot to a temp file, fsyncs, renames it into place,
// fsyncs the directory, then truncates the log. A crash between the rename
// and the truncate leaves stale log records whose seq the snapshot already
// covers; recovery skips them.
func (w *fileWAL) Compact(snap []byte) error {
	tmp := filepath.Join(w.dir, snapName+".tmp")
	tf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := tf.Write(frame(snap)); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName)); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.snapSize = int64(frameHeaderLen + len(snap))
	w.logSize = 0
	if w.noSync {
		return nil
	}
	return w.f.Sync()
}

func (w *fileWAL) Close() error {
	err := w.f.Close()
	if cerr := w.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadInfo summarizes one recovery replay for Open and Validate.
type loadInfo struct {
	LogEvents    int
	HaveSnapshot bool
	SnapshotSeq  uint64
	SnapshotJobs int
	TornTail     bool
}

// loadState replays a store directory into a fresh state (no wal attached),
// shared by Open and Validate.
func loadState(dir string, opt Options) (*Store, loadInfo, error) {
	s, _ := newStore(memWAL{}, opt)
	var info loadInfo
	snapPath := filepath.Join(dir, snapName)
	if data, rerr := os.ReadFile(snapPath); rerr == nil {
		// The snapshot is written atomically (tmp + rename), so any framing
		// or checksum problem — torn tail included — is corruption.
		var decoded bool
		if _, ferr := readFrames(bytes.NewReader(data), maxSnapshot, func(payload []byte) error {
			if decoded {
				return fmt.Errorf("%w: snapshot holds more than one record", ErrCorrupt)
			}
			decoded = true
			return s.loadSnapshot(payload)
		}); ferr != nil {
			return nil, info, fmt.Errorf("snapshot: %w", ferr)
		}
		if !decoded {
			return nil, info, fmt.Errorf("snapshot: %w: file holds no complete record", ErrCorrupt)
		}
		info.HaveSnapshot = true
		info.SnapshotSeq = s.seq
		info.SnapshotJobs = len(s.jobs)
	} else if !errors.Is(rerr, os.ErrNotExist) {
		return nil, info, fmt.Errorf("store: reading snapshot: %w", rerr)
	}

	lf, lerr := os.Open(filepath.Join(dir, logName))
	if lerr != nil {
		if errors.Is(lerr, os.ErrNotExist) {
			return s, info, nil
		}
		return nil, info, fmt.Errorf("store: opening event log: %w", lerr)
	}
	defer lf.Close()
	snapSeq := s.seq
	prevSeq := uint64(0)
	first := true
	torn, ferr := readFrames(lf, maxRecord, func(payload []byte) error {
		var ev Event
		if jerr := json.Unmarshal(payload, &ev); jerr != nil {
			return fmt.Errorf("%w: undecodable event record: %v", ErrCorrupt, jerr)
		}
		if ev.Seq == 0 {
			// Seqs start at 1; a zero here is a damaged or forged record, and
			// letting it through would re-arm the first-record check below.
			return fmt.Errorf("%w: event record with seq 0", ErrCorrupt)
		}
		if first {
			first = false
			// First record: either covered by the snapshot (stale, skipped
			// below) or the direct continuation of it. With contiguity, every
			// later fresh record then follows in lockstep.
			if ev.Seq > snapSeq+1 {
				return fmt.Errorf("%w: event log begins at seq %d, want at most %d (snapshot seq %d + 1)", ErrCorrupt, ev.Seq, snapSeq+1, snapSeq)
			}
		} else if ev.Seq != prevSeq+1 {
			return fmt.Errorf("%w: event seq %d follows %d (must be contiguous and increasing)", ErrCorrupt, ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		if ev.Seq <= snapSeq {
			// Stale record from a crash between snapshot rename and log
			// truncation; the snapshot already covers it.
			return nil
		}
		if aerr := s.apply(ev); aerr != nil {
			return aerr
		}
		s.seq = ev.Seq
		info.LogEvents++
		return nil
	})
	info.TornTail = torn
	if ferr != nil {
		return nil, info, fmt.Errorf("event log: %w", ferr)
	}
	return s, info, nil
}

// loadSnapshot seeds the state from a decoded snapshot payload.
func (s *Store) loadSnapshot(payload []byte) error {
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("%w: undecodable snapshot: %v", ErrCorrupt, err)
	}
	if snap.V != snapshotVersion {
		return fmt.Errorf("%w: snapshot version %d, supported %d", ErrCorrupt, snap.V, snapshotVersion)
	}
	for i := range snap.Jobs {
		j := snap.Jobs[i]
		if j.ID == "" || j.State == "" {
			return fmt.Errorf("%w: snapshot job %d missing id or state", ErrCorrupt, i)
		}
		switch j.State {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			return fmt.Errorf("%w: snapshot job %s has unknown state %q", ErrCorrupt, j.ID, j.State)
		}
		if _, dup := s.jobs[j.ID]; dup {
			return fmt.Errorf("%w: snapshot repeats job %s", ErrCorrupt, j.ID)
		}
		s.jobs[j.ID] = &j
		s.counts[j.State]++
	}
	s.seq = snap.LastSeq
	s.nextID = snap.NextID
	return nil
}

// Open recovers (or initializes) a file-backed store in dir: load the
// snapshot, replay the event log — tolerating a crash-truncated tail,
// rejecting interior corruption with ErrCorrupt — and requeue jobs the
// previous process left running.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.defaults()
	// Take the single-writer flock before reading any state: opening a
	// directory a live writer owns must fail with ErrNotOwner, not with a
	// misleading ErrCorrupt (or torn-tail report) from files read mid-write.
	w, err := openFileWAL(dir)
	if err != nil {
		return nil, err
	}
	w.noSync = opt.NoSync
	loaded, info, err := loadState(dir, opt)
	if err != nil {
		w.Close()
		return nil, err
	}
	s, _ := newStore(w, opt)
	s.jobs = loaded.jobs
	s.counts = loaded.counts
	s.seq = loaded.seq
	s.nextID = loaded.nextID
	s.since = info.LogEvents
	cReplays.Inc()
	cReplayedEvs.Add(int64(info.LogEvents))
	// A torn tail means the final append never became durable; rewrite the
	// log to the recovered prefix so the next append lands on a clean frame
	// boundary. Compacting does exactly that (and refreshes the snapshot).
	if err := s.compactLocked(); err != nil {
		w.Close()
		return nil, err
	}
	if err := s.requeueOrphansLocked(); err != nil {
		w.Close()
		return nil, err
	}
	s.publishGaugesLocked()
	return s, nil
}
