package diagnose

import (
	"context"
	"fmt"
	"io"

	"dedc/internal/circuit"
	"dedc/internal/telemetry"
)

// LatestCheckpoint scans a run journal — typically one truncated by a crash —
// and returns the last decodable checkpoint, or nil when the journal holds
// none (killed before the first round boundary). The scan tolerates a
// truncated final line, the expected SIGKILL artefact; corruption anywhere
// else is an error.
func LatestCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp *Checkpoint
	var decodeErr error
	_, err := telemetry.ReplayJournal(r, telemetry.ReplayOptions{TolerateTruncatedTail: true}, func(pe telemetry.ParsedEvent) error {
		if pe.Event != telemetry.EventCheckpoint {
			return nil
		}
		c, err := DecodeCheckpoint(pe)
		if err != nil {
			// Remember the failure but keep the last good checkpoint: a
			// mangled later event must not discard a usable earlier one.
			decodeErr = err
			return nil
		}
		cp = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cp == nil && decodeErr != nil {
		return nil, decodeErr
	}
	return cp, nil
}

// ResumeFromCheckpoint continues a crashed run from an explicit checkpoint
// over the same inputs. A nil checkpoint degrades to a fresh RunContext. The
// checkpoint's configuration fingerprint (seed, exactness, error bound,
// schedule position, rounds policy) must match opt; a mismatch is an error,
// as is a checkpoint that fails to replay against these inputs.
func ResumeFromCheckpoint(ctx context.Context, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options, cp *Checkpoint) (*Result, error) {
	if err := validateInputs(netlist, specOut, pi, n); err != nil {
		return nil, err
	}
	if cp == nil {
		return RunContext(ctx, netlist, specOut, pi, n, model, opt), nil
	}
	d := opt.defaults()
	if d.Policy != PolicyRounds {
		return nil, fmt.Errorf("diagnose: resume requires PolicyRounds (checkpoints are round boundaries), got policy %d", d.Policy)
	}
	if cp.Step >= len(d.Schedule) {
		return nil, fmt.Errorf("diagnose: checkpoint at schedule step %d but the schedule has %d steps", cp.Step, len(d.Schedule))
	}
	if cp.Exact != d.Exact {
		return nil, fmt.Errorf("diagnose: checkpoint exact=%v does not match options exact=%v", cp.Exact, d.Exact)
	}
	if cp.MaxErrors != d.MaxErrors {
		return nil, fmt.Errorf("diagnose: checkpoint max_errors=%d does not match options max_errors=%d", cp.MaxErrors, d.MaxErrors)
	}
	if cp.Seed != d.Seed {
		return nil, fmt.Errorf("diagnose: checkpoint seed=%d does not match options seed=%d (different vectors)", cp.Seed, d.Seed)
	}
	return runSearch(ctx, netlist, specOut, pi, n, model, opt, cp)
}

// ResumeFromJournal restarts a diagnosis from the journal a crashed run left
// behind: it replays the journal to its last checkpoint and continues the
// search from there over the same inputs. With no checkpoint in the journal
// the run simply starts fresh, so callers can resume unconditionally after
// any crash, however early it struck.
func ResumeFromJournal(ctx context.Context, journal io.Reader, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options) (*Result, error) {
	cp, err := LatestCheckpoint(journal)
	if err != nil {
		return nil, err
	}
	return ResumeFromCheckpoint(ctx, netlist, specOut, pi, n, model, opt, cp)
}

// ResumeStuckAtFromJournal is ResumeFromJournal in the exact stuck-at
// configuration of DiagnoseStuckAtContext, returning the Table-1 form.
func ResumeStuckAtFromJournal(ctx context.Context, journal io.Reader, netlist *circuit.Circuit, deviceOut [][]uint64, pi [][]uint64, n int, opt Options) (*StuckAtResult, error) {
	cp, err := LatestCheckpoint(journal)
	if err != nil {
		return nil, err
	}
	return ResumeStuckAtFromCheckpoint(ctx, netlist, deviceOut, pi, n, opt, cp)
}

// ResumeStuckAtFromCheckpoint is ResumeFromCheckpoint in the exact stuck-at
// configuration of DiagnoseStuckAtContext, returning the Table-1 form.
func ResumeStuckAtFromCheckpoint(ctx context.Context, netlist *circuit.Circuit, deviceOut [][]uint64, pi [][]uint64, n int, opt Options, cp *Checkpoint) (*StuckAtResult, error) {
	opt.Exact = true
	res, err := ResumeFromCheckpoint(ctx, netlist, deviceOut, pi, n, StuckAtModel{}, opt, cp)
	if err != nil {
		return nil, err
	}
	return stuckAtResultFrom(res), nil
}

// ResumeRepairFromJournal is ResumeFromJournal in the DEDC configuration of
// RepairContext, returning the repair form.
func ResumeRepairFromJournal(ctx context.Context, journal io.Reader, impl *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, opt Options) (*RepairResult, error) {
	cp, err := LatestCheckpoint(journal)
	if err != nil {
		return nil, err
	}
	return ResumeRepairFromCheckpoint(ctx, impl, specOut, pi, n, opt, cp)
}

// ResumeRepairFromCheckpoint is ResumeFromCheckpoint in the DEDC
// configuration of RepairContext, returning the repair form.
func ResumeRepairFromCheckpoint(ctx context.Context, impl *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, opt Options, cp *Checkpoint) (*RepairResult, error) {
	opt.Exact = false
	res, err := ResumeFromCheckpoint(ctx, impl, specOut, pi, n, NewErrorModel(impl, 0, 1), opt, cp)
	if err != nil {
		return nil, err
	}
	return repairResultFrom(impl, res)
}
