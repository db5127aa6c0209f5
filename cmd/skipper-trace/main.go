// Command skipper-trace analyzes event traces recorded by the executive
// (skipper-run -trace=<dir>, or a flight-recorder dump). It merges the
// trace-*.json files onto the hub's clock and prints a per-op
// latency table, per-processor utilization and the (approximate) critical
// path of the run.
//
// With -compare the tool recompiles the deployment the trace's metadata
// names, runs the SynDEx-style timing simulator over the same schedule and
// diffs the measured per-op time shares against the predicted ones — the
// numeric counterpart of putting the predicted and measured chronograms
// side by side (paper Fig. 5). Because the simulator's virtual clock and
// the host's wall clock use different units, the comparison normalizes
// each side to its share of total op time and reports the skew per op.
//
// With -skew the same comparison is computed as a report; -skew -json emits
// it machine-readable (for CI gates and dashboards). -strict exits nonzero
// when the loaded trace dropped events to ring wrap-around, so automation
// cannot silently trust a trace with holes in it.
//
// Usage:
//
//	skipper-trace [-compare] [-skew [-json]] [-strict] [-top 20] <trace-dir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"skipper/internal/distrib"
	"skipper/internal/obsv"
	"skipper/internal/sim"
)

func main() {
	compare := flag.Bool("compare", false, "diff measured per-op time shares against the simulator's predicted schedule")
	skew := flag.Bool("skew", false, "compute the measured-vs-predicted skew report (same math as -compare)")
	jsonOut := flag.Bool("json", false, "with -skew: emit the report as JSON instead of the human tables")
	strict := flag.Bool("strict", false, "exit nonzero when the trace dropped events to ring wrap-around")
	top := flag.Int("top", 20, "rows to print in the per-op latency table (0 = all)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: skipper-trace [-compare] [-skew [-json]] [-strict] [-top N] <trace-dir>")
		os.Exit(2)
	}
	dir := flag.Arg(0)

	tr, err := obsv.LoadDir(dir)
	if err != nil {
		fatal(err)
	}
	spans := tr.OpSpans()
	nprocs := tr.NProcs
	for _, sp := range spans {
		if int(sp.Proc)+1 > nprocs {
			nprocs = int(sp.Proc) + 1
		}
	}

	if tr.Dropped > 0 {
		fmt.Fprintf(os.Stderr,
			"skipper-trace: WARNING: trace dropped %d events to ring wrap-around — tables and skew shares below have holes; record with a larger ring or a shorter window\n",
			tr.Dropped)
	}

	if *skew && *jsonOut {
		// Machine-readable mode: the skew report is the only stdout output.
		rep, err := buildSkewReport(tr, spans)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		exitStrict(*strict, tr.Dropped)
		return
	}

	fmt.Printf("trace: %d events, %d op spans, %d processors", len(tr.Events), len(spans), len(tr.Procs))
	if tr.Dropped > 0 {
		fmt.Printf(" (%d events dropped to ring wrap)", tr.Dropped)
	}
	fmt.Println()

	printOpTable(spans, *top)
	printUtilization(spans, nprocs)
	printCriticalPath(spans)

	if *compare || *skew {
		rep, err := buildSkewReport(tr, spans)
		if err != nil {
			fatal(err)
		}
		printSkewReport(rep)
	}
	exitStrict(*strict, tr.Dropped)
}

// exitStrict enforces -strict: a trace with holes fails the invocation.
func exitStrict(strict bool, dropped int64) {
	if strict && dropped > 0 {
		fmt.Fprintf(os.Stderr, "skipper-trace: strict mode: failing on %d dropped events\n", dropped)
		os.Exit(1)
	}
}

// printOpTable renders the per-op latency table, heaviest ops first.
func printOpTable(spans []obsv.OpSpan, top int) {
	stats := obsv.AggregateOps(spans)
	if len(stats) == 0 {
		fmt.Println("\nno op spans recorded (trace carries only transport events?)")
		return
	}
	var totalNS int64
	for _, st := range stats {
		totalNS += st.TotalNS
	}
	fmt.Printf("\n%-24s %8s %10s %10s %10s %10s %7s\n",
		"op", "count", "total", "mean", "min", "max", "share")
	rows := stats
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	for _, st := range rows {
		fmt.Printf("%-24s %8d %10s %10s %10s %10s %6.1f%%\n",
			clip(st.Label, 24), st.Count,
			fmtNS(st.TotalNS), fmtNS(st.MeanNS()), fmtNS(st.MinNS), fmtNS(st.MaxNS),
			100*float64(st.TotalNS)/float64(max64(totalNS, 1)))
	}
	if len(rows) < len(stats) {
		fmt.Printf("… %d more ops (-top 0 shows all)\n", len(stats)-len(rows))
	}
}

// printUtilization renders each processor's busy fraction as a bar.
func printUtilization(spans []obsv.OpSpan, nprocs int) {
	busy, total := obsv.Utilization(spans, nprocs)
	if total == 0 {
		return
	}
	fmt.Printf("\nutilization over %s:\n", fmtNS(total))
	for p, b := range busy {
		frac := float64(b) / float64(total)
		bar := strings.Repeat("█", int(frac*40+0.5))
		fmt.Printf("  P%-3d %5.1f%% %s\n", p, 100*frac, bar)
	}
}

// printCriticalPath renders the approximate critical path, longest hops
// first collapsed to at most a dozen entries.
func printCriticalPath(spans []obsv.OpSpan) {
	path := obsv.CriticalPath(spans)
	if len(path) == 0 {
		return
	}
	var pathNS int64
	for _, sp := range path {
		pathNS += sp.Dur()
	}
	fmt.Printf("\ncritical path: %d spans, %s busy\n", len(path), fmtNS(pathNS))
	show := path
	const maxShow = 12
	if len(show) > maxShow {
		show = show[len(show)-maxShow:]
		fmt.Printf("  … %d earlier spans\n", len(path)-maxShow)
	}
	for _, sp := range show {
		fmt.Printf("  P%-3d %-24s %10s  at %s\n", sp.Proc, clip(sp.Label, 24), fmtNS(sp.Dur()), fmtNS(sp.Start))
	}
}

// skewReport is the measured-vs-predicted comparison in machine-readable
// form — what `-skew -json` emits and the human table renders.
type skewReport struct {
	Topology string `json:"topology"`
	Procs    int    `json:"procs"`
	Iters    int    `json:"iters"`
	// DroppedEvents flags an incomplete trace: shares below have holes.
	DroppedEvents int64       `json:"droppedEvents,omitempty"`
	Ops           []skewEntry `json:"ops"`
	// PredictedOnly/MeasuredOnly are labels one side knows and the other
	// does not (a trace from a different build, or ops the simulator folds).
	PredictedOnly []string `json:"predictedOnly,omitempty"`
	MeasuredOnly  []string `json:"measuredOnly,omitempty"`
}

// skewEntry is one op's normalized time shares. Shares are fractions of
// each side's total op time over the common labels; SkewPct is the
// measured share minus the predicted share, in percentage points.
type skewEntry struct {
	Op             string  `json:"op"`
	PredictedShare float64 `json:"predictedShare"`
	MeasuredShare  float64 `json:"measuredShare"`
	SkewPct        float64 `json:"skewPct"`
	MeasuredNS     int64   `json:"measuredNs"`
}

// buildSkewReport recompiles the deployment named by the trace's metadata,
// simulates it, and diffs the per-op time shares. The simulator's virtual
// seconds and the trace's wall-clock nanoseconds are incommensurable, so
// each side is normalized to its share of total op time over the labels
// both sides know about.
func buildSkewReport(tr *obsv.Trace, spans []obsv.OpSpan) (*skewReport, error) {
	sp, err := distrib.SpecFromMeta(tr.Meta)
	if err != nil {
		return nil, err
	}
	s, reg, _, err := sp.Compile()
	if err != nil {
		return nil, fmt.Errorf("recompiling spec from trace meta: %w", err)
	}
	res, err := sim.Run(s, reg, sim.Options{Iters: sp.Iters, Trace: true})
	if err != nil {
		return nil, fmt.Errorf("simulating predicted schedule: %w", err)
	}

	predicted := map[string]float64{}
	for _, span := range res.Spans {
		predicted[span.Label] += span.End - span.Start
	}
	measured := map[string]float64{}
	for _, span := range spans {
		measured[span.Label] += float64(span.Dur())
	}
	var labels []string
	var predTotal, measTotal float64
	for l, p := range predicted {
		if m, ok := measured[l]; ok {
			labels = append(labels, l)
			predTotal += p
			measTotal += m
		}
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("no op labels common to the trace and the predicted schedule (trace recorded with a different build?)")
	}
	sort.Slice(labels, func(a, b int) bool { return measured[labels[a]] > measured[labels[b]] })

	rep := &skewReport{
		Topology:      sp.Topology,
		Procs:         sp.Procs,
		Iters:         sp.Iters,
		DroppedEvents: tr.Dropped,
	}
	for _, l := range labels {
		ps := predicted[l] / predTotal
		ms := measured[l] / measTotal
		rep.Ops = append(rep.Ops, skewEntry{
			Op:             l,
			PredictedShare: ps,
			MeasuredShare:  ms,
			SkewPct:        (ms - ps) * 100,
			MeasuredNS:     int64(measured[l]),
		})
	}
	for l := range predicted {
		if _, ok := measured[l]; !ok {
			rep.PredictedOnly = append(rep.PredictedOnly, l)
		}
	}
	for l := range measured {
		if _, ok := predicted[l]; !ok {
			rep.MeasuredOnly = append(rep.MeasuredOnly, l)
		}
	}
	sort.Strings(rep.PredictedOnly)
	sort.Strings(rep.MeasuredOnly)
	return rep, nil
}

// printSkewReport renders the report as the human-facing table.
func printSkewReport(rep *skewReport) {
	fmt.Printf("\npredicted vs measured (%s, %d procs, %d iters), normalized time shares over %d common ops:\n",
		rep.Topology, rep.Procs, rep.Iters, len(rep.Ops))
	fmt.Printf("%-24s %11s %11s %8s\n", "op", "predicted", "measured", "skew")
	for _, e := range rep.Ops {
		fmt.Printf("%-24s %10.2f%% %10.2f%% %+7.2f%%\n",
			clip(e.Op, 24), 100*e.PredictedShare, 100*e.MeasuredShare, e.SkewPct)
	}
	if len(rep.PredictedOnly) > 0 {
		fmt.Printf("predicted only: %s\n", strings.Join(rep.PredictedOnly, ", "))
	}
	if len(rep.MeasuredOnly) > 0 {
		fmt.Printf("measured only : %s\n", strings.Join(rep.MeasuredOnly, ", "))
	}
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skipper-trace:", err)
	os.Exit(1)
}
