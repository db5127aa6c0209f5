package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// isCount reports whether the metric is a count made by the program: those
// must repeat to within 1 % between two sets whatever the machine is doing.
func isCount(name string) bool {
	return name == "allocs_per_frame" || name == "transport.messages_per_frame" ||
		(strings.HasPrefix(name, "value.") && strings.HasSuffix(name, "_bytes_per_frame"))
}

// compareSets checks two full sets of runs of the same code against the
// benchmark's own bounds: every end-to-end metric of the second set must be
// within its bound of the first (in the worse direction), and every count
// within 1 %. It prints each metric's spread, so a bound that is too tight
// for this machine is seen and fixed in BENCHMARK.json, not ignored.
func compareSets(a, b []*result) bool {
	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Println("selfcheck:", err)
		return false
	}
	bounds := map[string]benchMetric{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	ok := true
	fmt.Printf("\nselfcheck: second set against the first\n%-22s %-36s %12s %12s %8s %8s\n",
		"workload", "metric", "first", "second", "change", "bound")
	for i, ra := range a {
		rb := b[i]
		for _, name := range sortedKeys(ra.Metrics) {
			x, y := ra.Metrics[name].Value, rb.Metrics[name].Value
			bm, bounded := bounds[name]
			if !bounded && !isCount(name) {
				continue
			}
			change := 0.0
			if x != 0 {
				change = (y - x) / math.Abs(x)
			}
			worse := change
			if bm.Better == "higher" {
				worse = -change
			}
			limit, verdict := bm.Bound, ""
			if isCount(name) {
				limit, worse = 0.01, math.Abs(change)
			}
			if worse > limit {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-22s %-36s %12.4f %12.4f %+7.1f%% %7.1f%%%s\n",
				ra.Workload, name, x, y, 100*change, 100*limit, verdict)
		}
	}
	if ok {
		fmt.Println("selfcheck: the two sets agree within the bounds")
	} else {
		fmt.Println("selfcheck: FAILED")
	}
	return ok
}

func sortedKeys(m map[string]summary) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
