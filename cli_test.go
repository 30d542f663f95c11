package dedc

// End-to-end CLI pipeline test: builds the command binaries and drives the
// full tool flow — generate, corrupt, build vectors, repair, formally
// verify — exactly as a user at a shell would.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	genckt := buildTool(t, dir, "genckt")
	inject := buildTool(t, dir, "inject")
	atpg := buildTool(t, dir, "atpg")
	dedcBin := buildTool(t, dir, "dedc")
	equivBin := buildTool(t, dir, "equiv")

	good := filepath.Join(dir, "good.bench")
	bad := filepath.Join(dir, "bad.bench")
	vec := filepath.Join(dir, "v.vec")
	fixed := filepath.Join(dir, "fixed.bench")

	// genckt: emit an ALU netlist.
	run(t, genckt, "-kind", "alu", "-width", "4", "-o", good)
	if fi, err := os.Stat(good); err != nil || fi.Size() == 0 {
		t.Fatal("genckt produced nothing")
	}

	// inject: corrupt with 2 design errors.
	_, stderr := run(t, inject, "-in", good, "-errors", "2", "-seed", "5", "-o", bad)
	if !strings.Contains(stderr, "injected error") {
		t.Fatalf("inject did not report errors: %s", stderr)
	}

	// equiv: must detect the difference.
	cmd := exec.Command(equivBin, "-a", good, "-b", bad)
	out, _ := cmd.CombinedOutput()
	if cmd.ProcessState.ExitCode() != 1 || !strings.Contains(string(out), "NOT EQUIVALENT (sat)") {
		t.Fatalf("equiv missed the corruption: %s", out)
	}

	// atpg: vectors with deterministic top-up.
	_, stderr = run(t, atpg, "-in", good, "-random", "512", "-det", "-o", vec)
	if !strings.Contains(stderr, "coverage") {
		t.Fatalf("atpg reported nothing: %s", stderr)
	}

	// dedc: repair against the spec using the vector file.
	_, stderr = run(t, dedcBin, "-impl", bad, "-spec", good, "-vec", vec, "-o", fixed)
	if !strings.Contains(stderr, "corrections (") {
		t.Fatalf("dedc did not repair: %s", stderr)
	}

	// equiv: the repair must now be formally equivalent; the ALU is narrow
	// enough for the proof to be an exhaustive simulation.
	sout, _ := run(t, equivBin, "-a", good, "-b", fixed)
	if !strings.Contains(sout, "EQUIVALENT (proof: exhaustive simulation") || strings.Contains(sout, "NOT EQUIVALENT") {
		t.Fatalf("repair not proven equivalent: %s", sout)
	}

	// dedc stuck-at mode: inject faults, diagnose tuples.
	faulty := filepath.Join(dir, "faulty.bench")
	run(t, inject, "-in", good, "-faults", "2", "-seed", "9", "-o", faulty)
	sout, stderr = run(t, dedcBin, "-impl", good, "-device", faulty, "-stuckat", "-vec", vec)
	if !strings.Contains(stderr, "minimal tuple") || strings.TrimSpace(sout) == "" {
		t.Fatalf("stuck-at diagnosis produced nothing: %s / %s", sout, stderr)
	}

	// dedc -timeout: an immediately-expiring deadline must degrade
	// gracefully — exit 2, truncation status reported, no panic.
	cmd = exec.Command(dedcBin, "-impl", bad, "-spec", good, "-vec", vec, "-timeout", "1ns")
	out, _ = cmd.CombinedOutput()
	if cmd.ProcessState.ExitCode() != 2 {
		t.Fatalf("timed-out repair exited %d, want 2: %s", cmd.ProcessState.ExitCode(), out)
	}
	if !strings.Contains(string(out), "TimedOut") {
		t.Fatalf("timed-out repair did not report its status: %s", out)
	}

	// Malformed input keeps exit code 1 (usage/input error class).
	garbage := filepath.Join(dir, "garbage.bench")
	if err := os.WriteFile(garbage, []byte("INPUT(a)\nG1 = FROB(a)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(dedcBin, "-impl", garbage, "-spec", good)
	out, _ = cmd.CombinedOutput()
	if cmd.ProcessState.ExitCode() != 1 {
		t.Fatalf("garbage input exited %d, want 1: %s", cmd.ProcessState.ExitCode(), out)
	}
	if !strings.Contains(string(out), "line 2") {
		t.Fatalf("parse error lacks position: %s", out)
	}
}
