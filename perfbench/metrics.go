package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// opRec is one op's outcome: its timing, its checked answer and the exact
// counts the engine reported, plus the layer split of a traced run.
type opRec struct {
	Index  int
	Label  string // circuit (or job kind) the op ran on, for the paper tables
	Wall   time.Duration
	CPU    time.Duration // CPU time of the process doing the work, during the op
	Solved bool          // the answer passed the checker
	Failed bool          // the checker rejected the answer, or the op errored or hung
	Reason string
	Digest string // hash of the canonical answer

	// Exact counts for the determinism record.
	Nodes, Trials, Candidates, Screened, Simulations, Verified int64
	Iterations, Added                                          int64
	Tuples                                                     int64 // answers found: tuples, or 1 per correction set
	SolSize                                                    int64 // size of the answer (corrections or faults per tuple)
	Sites                                                      int64 // distinct fault sites over all tuples

	lay layers
}

// layers is the traced split of one op. Every time field is a disjoint
// part of the op's wall time except attempt, which dedcd's job timeline
// gives and the in-process replay splits further.
type layers struct {
	parse, vectors, device       time.Duration
	diag, corr, other            time.Duration
	equiv                        time.Duration
	submit, queue, attempt, wait time.Duration

	tpgCalls, backtracks, generated, patterns int64
	coverage                                  float64
	conflicts                                 int64
	cacheHits, cacheMisses                    int64
}

// attributed is the sum of the disjoint layer times; the op wall minus it
// is trace.unattributed_ms.
func (l *layers) attributed() time.Duration {
	return l.parse + l.vectors + l.device + l.diag + l.corr + l.other + l.equiv + l.submit + l.queue + l.wait
}

// recordLine is the op's determinism record: everything in it must repeat
// exactly between two runs of the same code and seed.
func (o *opRec) recordLine() map[string]any {
	return map[string]any{
		"op": o.Index, "label": o.Label, "solved": o.Solved, "failed": o.Failed, "digest": o.Digest,
		"nodes": o.Nodes, "trials": o.Trials, "candidates": o.Candidates, "screened": o.Screened,
		"simulations": o.Simulations, "verified": o.Verified, "iterations": o.Iterations,
		"added_vectors": o.Added, "tuples": o.Tuples,
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics are the user-visible numbers of an untraced run. Every
// time, set-up's too, is CPU time of the processes doing the work, scaled
// by the speed probe's factor (see probe.go): on the shared host the wall
// time of the same ops moved by a third between runs, with the time the
// hypervisor steals, and their CPU time by a fifth, with what other
// tenants run.
func endToEndMetrics(ops []*opRec, win window, setupS, speed float64) map[string]metric {
	cpu := make([]float64, len(ops))
	total, solved := 0.0, 0
	for i, o := range ops {
		cpu[i] = ms(o.CPU) * speed
		total += cpu[i]
		if o.Solved && i < minOps {
			solved++
		}
	}
	return map[string]metric{
		"setup_s":       {setupS * speed, "s"},
		"cpu_ms_per_op": {total / float64(len(ops)), "ms"},
		"cpu_p50_ms":    {quantile(cpu, 0.5), "ms"},
		"cpu_p90_ms":    {quantile(cpu, 0.9), "ms"},
		"solved_frac":   {float64(solved) / float64(min(len(ops), minOps)), "frac"},
		"peak_rss_mb":   {float64(win.peakRSS) / (1 << 20), "MB"},
	}
}

// layerTimes names the disjoint per-layer time metrics whose sum plus
// trace.unattributed_ms is trace.op_ms.
var layerTimes = []string{
	"bench.parse_ms", "tpg.vectors_ms", "sim.device_ms",
	"diagnose.diag_ms", "diagnose.corr_ms", "diagnose.other_ms", "equiv.check_ms",
	"dedcd.submit_ms", "dedcd.queue_wait_ms", "dedcd.result_ms",
}

// layerMetrics are the per-layer numbers of a traced run. Times are means
// per op; counts are means per op unless named as a ratio.
func layerMetrics(ops []*opRec, tr *tracer) map[string]metric {
	var sum layers
	var wall time.Duration
	lat := make([]float64, len(ops))
	var nodes, trials, cands, screened, sims, verified, tuples, solSize, iters, added float64
	for i, o := range ops {
		l := o.lay
		wall += o.Wall
		lat[i] = ms(o.Wall)
		sum.parse += l.parse
		sum.vectors += l.vectors
		sum.device += l.device
		sum.diag += l.diag
		sum.corr += l.corr
		sum.other += l.other
		sum.equiv += l.equiv
		sum.submit += l.submit
		sum.queue += l.queue
		sum.attempt += l.attempt
		sum.wait += l.wait
		sum.tpgCalls += l.tpgCalls
		sum.backtracks += l.backtracks
		sum.generated += l.generated
		sum.patterns += l.patterns
		sum.coverage += l.coverage
		sum.conflicts += l.conflicts
		sum.cacheHits += l.cacheHits
		sum.cacheMisses += l.cacheMisses
		nodes += float64(o.Nodes)
		trials += float64(o.Trials)
		cands += float64(o.Candidates)
		screened += float64(o.Screened)
		sims += float64(o.Simulations)
		verified += float64(o.Verified)
		tuples += float64(o.Tuples)
		solSize += float64(o.SolSize * o.Tuples)
		iters += float64(o.Iterations)
		added += float64(o.Added)
	}
	n := float64(len(ops))
	per := func(d time.Duration) float64 { return ms(d) / n }
	tpgPer := func(x float64) float64 { return ratio(x, float64(sum.tpgCalls)) }
	unattributed := wall - sum.attributed()
	m := map[string]metric{
		"trace.op_ms":                 {per(wall), "ms"},
		"trace.op_p50_ms":             {quantile(lat, 0.5), "ms"},
		"trace.op_p90_ms":             {quantile(lat, 0.9), "ms"},
		"trace.unattributed_ms":       {per(unattributed), "ms"},
		"trace.unattributed_frac":     {ratio(float64(unattributed), float64(wall)), "frac"},
		"trace.overhead_frac":         {ratio(float64(tr.overhead()), float64(wall)), "frac"},
		"bench.parse_ms":              {per(sum.parse), "ms"},
		"tpg.vectors_ms":              {per(sum.vectors), "ms"},
		"tpg.backtracks":              {tpgPer(float64(sum.backtracks)), "count"},
		"tpg.generated":               {tpgPer(float64(sum.generated)), "count"},
		"tpg.coverage":                {tpgPer(sum.coverage), "frac"},
		"tpg.patterns":                {tpgPer(float64(sum.patterns)), "count"},
		"sim.device_ms":               {per(sum.device), "ms"},
		"diagnose.diag_ms":            {per(sum.diag), "ms"},
		"diagnose.diag_ms_per_node":   {ratio(ms(sum.diag), nodes), "ms"},
		"diagnose.corr_ms":            {per(sum.corr), "ms"},
		"diagnose.corr_ms_per_node":   {ratio(ms(sum.corr), nodes), "ms"},
		"diagnose.other_ms":           {per(sum.other), "ms"},
		"diagnose.nodes":              {nodes / n, "count"},
		"diagnose.trials":             {trials / n, "count"},
		"diagnose.candidates":         {cands / n, "count"},
		"diagnose.screened":           {screened / n, "count"},
		"diagnose.screen_reject_frac": {ratio(screened, cands), "frac"},
		"diagnose.simulations":        {sims / n, "count"},
		"diagnose.verified":           {verified / n, "count"},
		"diagnose.tuples":             {tuples / n, "count"},
		"diagnose.node_yield":         {ratio(solSize, nodes), "frac"},
		"diagnose.ms_per_tuple":       {ratio(ms(sum.diag+sum.corr+sum.other), tuples), "ms"},
		"cache.hit_ratio":             {ratio(float64(sum.cacheHits), float64(sum.cacheHits+sum.cacheMisses)), "frac"},
		"dedcd.submit_ms":             {per(sum.submit), "ms"},
		"dedcd.queue_wait_ms":         {per(sum.queue), "ms"},
		"dedcd.attempt_ms":            {per(sum.attempt), "ms"},
		"dedcd.result_ms":             {per(sum.wait), "ms"},
		"proven.iterations":           {iters / n, "count"},
		"proven.added_vectors":        {added / n, "count"},
		"equiv.check_ms":              {per(sum.equiv), "ms"},
		"sat.conflicts":               {float64(sum.conflicts) / n, "count"},
	}
	return m
}

// printIdentity prints the additive split of the mean op wall time, so a
// reader can check that the layers and the remainder add up.
func printIdentity(w io.Writer, m map[string]metric) {
	var terms []string
	total := 0.0
	for _, name := range layerTimes {
		v := m[name].Value
		total += v
		if v != 0 {
			terms = append(terms, fmt.Sprintf("%s %.3f", name, v))
		}
	}
	un := m["trace.unattributed_ms"].Value
	fmt.Fprintf(w, "split op_ms %.3f = %s + trace.unattributed_ms %.3f (%.1f%%)\n",
		m["trace.op_ms"].Value, strings.Join(terms, " + "), un, 100*m["trace.unattributed_frac"].Value)
	if d := math.Abs(total + un - m["trace.op_ms"].Value); d > 1e-6*math.Max(1, m["trace.op_ms"].Value) {
		fmt.Fprintf(w, "split MISMATCH by %.6f ms\n", d)
	}
}

// printPaperTables groups a traced run's ops per circuit in the columns of
// the paper's tables: Table 2 (diag/node, corr/node, nodes, total, solved)
// for repairs, Table 1 (#sites, #tuples, t/tuple) for stuck-at diagnosis.
func printPaperTables(w io.Writer, workload string, ops []*opRec) {
	groups := map[string][]*opRec{}
	var labels []string
	for _, o := range ops {
		if _, ok := groups[o.Label]; !ok {
			labels = append(labels, o.Label)
		}
		groups[o.Label] = append(groups[o.Label], o)
	}
	sort.Strings(labels)
	switch workload {
	case "table2-repair", "cegar-proof":
		fmt.Fprintf(w, "table2 %-10s %6s %12s %12s %8s %10s %8s\n", "circuit", "ops", "diag/node", "corr/node", "nodes", "total", "solved")
		for _, lb := range labels {
			var diag, corr, wall time.Duration
			var nodes, solved float64
			for _, o := range groups[lb] {
				diag += o.lay.diag
				corr += o.lay.corr
				wall += o.Wall
				nodes += float64(o.Nodes)
				if o.Solved {
					solved++
				}
			}
			k := float64(len(groups[lb]))
			fmt.Fprintf(w, "table2 %-10s %6d %10.3fms %10.3fms %8.1f %8.1fms %8.2f\n", lb, len(groups[lb]),
				ratio(ms(diag), nodes), ratio(ms(corr), nodes), nodes/k, ms(wall)/k, solved/k)
		}
	case "table1-stuckat":
		fmt.Fprintf(w, "table1 %-10s %6s %8s %8s %12s %8s\n", "circuit", "ops", "#sites", "#tuples", "t/tuple", "solved")
		for _, lb := range labels {
			var sites, tuples, solved float64
			var tPerTuple float64
			for _, o := range groups[lb] {
				if !o.Solved {
					continue
				}
				solved++
				sites += float64(o.Sites)
				tuples += float64(o.Tuples)
				tPerTuple += ms(o.Wall) / float64(o.Tuples)
			}
			k := float64(len(groups[lb]))
			fmt.Fprintf(w, "table1 %-10s %6d %8.1f %8.1f %10.3fms %8.2f\n", lb, len(groups[lb]),
				ratio(sites, solved), ratio(tuples, solved), ratio(tPerTuple, solved), solved/k)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the linear-interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// digest hashes a sequence of strings into a short hex id.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) add(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// digestOf hashes the parts of one answer.
func digestOf(parts ...string) string {
	d := newDigest()
	for _, p := range parts {
		d.add(p)
	}
	return d.sum()
}
