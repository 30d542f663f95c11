package store

import "fmt"

// Report is the result of an offline Validate pass over a store directory.
type Report struct {
	Dir string
	// HaveSnapshot reports whether a snapshot file was present and valid.
	HaveSnapshot bool
	// SnapshotSeq is the snapshot's last covered seq (0 with no snapshot).
	SnapshotSeq uint64
	// SnapshotJobs is the number of jobs the snapshot carried.
	SnapshotJobs int
	// LogEvents is the number of fresh log events applied on top of it.
	LogEvents int
	// LastSeq is the highest applied seq across snapshot and log.
	LastSeq uint64
	// NextID is the persisted submission counter (evicted-job watermark).
	NextID uint64
	// TornTail reports a crash-truncated final record — expected after a
	// SIGKILL, and recovered from by replaying the clean prefix.
	TornTail bool
	// Jobs counts retained jobs per state. Running jobs are claims a dead
	// process held; Open would requeue them as orphans.
	Jobs map[State]int
}

// String renders the report as a one-line summary.
func (r *Report) String() string {
	tail := ""
	if r.TornTail {
		tail = ", torn tail (crash artefact, prefix recovered)"
	}
	snap := "no snapshot"
	if r.HaveSnapshot {
		snap = fmt.Sprintf("snapshot @ seq %d (%d jobs)", r.SnapshotSeq, r.SnapshotJobs)
	}
	return fmt.Sprintf("%s: %s, %d log event(s), last seq %d, next id %d%s; jobs: %s",
		r.Dir, snap, r.LogEvents, r.LastSeq, r.NextID, tail, formatCounts(r.Jobs))
}

func formatCounts(m map[State]int) string {
	if len(m) == 0 {
		return "none"
	}
	out := ""
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		if n := m[st]; n > 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%d %s", n, st)
		}
	}
	return out
}

// Validate replays a store directory read-only and checks every recovery
// invariant: record framing and checksums, snapshot decodability, seq
// contiguity across snapshot and log, legal state transitions (the same
// apply function the live store uses), and that no retained job sits above
// the persisted submission counter. Interior damage returns an
// ErrCorrupt-wrapped error; a torn tail is reported in the Report, not as an
// error.
func Validate(dir string) (*Report, error) {
	rep, _, err := ValidateJobs(dir)
	return rep, err
}

// ValidateJobs is Validate plus the replayed job table itself, ordered by
// numeric ID — each job carrying its folded lifecycle timeline — for offline
// tooling that derives per-job figures (journalcheck's queue-wait report).
func ValidateJobs(dir string) (*Report, []Job, error) {
	s, info, err := loadState(dir, Options{}.defaults())
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Dir:          dir,
		HaveSnapshot: info.HaveSnapshot,
		SnapshotSeq:  info.SnapshotSeq,
		SnapshotJobs: info.SnapshotJobs,
		LogEvents:    info.LogEvents,
		LastSeq:      s.seq,
		NextID:       s.nextID,
		TornTail:     info.TornTail,
		Jobs:         map[State]int{},
	}
	jobs := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		rep.Jobs[j.State]++
		if n, ok := jobNum(j.ID); !ok || n > s.nextID {
			return nil, nil, fmt.Errorf("%w: job %s above the submission counter %d", ErrCorrupt, j.ID, s.nextID)
		}
		jobs = append(jobs, *j)
	}
	sortJobsByID(jobs)
	return rep, jobs, nil
}
