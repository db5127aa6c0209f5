// Command skipper-bench regenerates the paper's evaluation: every
// experiment indexed in DESIGN.md §4 (E1–E11) prints the corresponding
// table, with the paper's reported value alongside the measured one where
// the paper gives a number.
//
// Usage:
//
//	skipper-bench [-exp all|e1|e2|...|e11] [-iters 30]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"skipper/internal/harness"
)

// experiments lists E1–E11 in the order -exp all prints them.
var experiments = []struct {
	name string
	run  func(w io.Writer, iters int) error
}{
	{"e1", func(w io.Writer, iters int) error { _, err := harness.E1(w, iters); return err }},
	{"e2", func(w io.Writer, iters int) error {
		_, err := harness.E2(w, iters, []int{1, 2, 4, 6, 8, 12, 16})
		return err
	}},
	{"e3", func(w io.Writer, iters int) error { _, err := harness.E3(w, iters); return err }},
	{"e4", func(w io.Writer, iters int) error { _, err := harness.E4(w, iters); return err }},
	{"e5", func(w io.Writer, _ int) error { _, err := harness.E5(w, 32, 8); return err }},
	{"e6", func(w io.Writer, iters int) error { _, err := harness.E6(w, iters); return err }},
	{"e7", func(w io.Writer, _ int) error { _, err := harness.E7(w, []int{1, 2, 4, 8, 16}); return err }},
	{"e8", func(w io.Writer, _ int) error { _, err := harness.E8(w, []int{1, 2, 4, 8}); return err }},
	{"e9", func(w io.Writer, _ int) error { _, err := harness.E9(w); return err }},
	{"e10", func(w io.Writer, iters int) error { _, err := harness.E10(w, iters); return err }},
	{"e11", func(w io.Writer, iters int) error { _, err := harness.E11(w, iters); return err }},
}

// selectExperiments parses the -exp value, a comma-separated list of "all"
// and experiment names; any other name is an error listing the valid ones.
func selectExperiments(exp string) (map[string]bool, error) {
	valid := []string{"all"}
	for _, e := range experiments {
		valid = append(valid, e.name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all or e1..e11 (comma-separated)")
	iters := flag.Int("iters", 30, "stream iterations per measurement")
	flag.Parse()

	want, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipper-bench: -exp: %v\n", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, want, *iters); err != nil {
		fmt.Fprintf(os.Stderr, "skipper-bench: %v\n", err)
		os.Exit(1)
	}
}

// run prints the selected experiments' tables to w, each followed by a
// blank line.
func run(w io.Writer, want map[string]bool, iters int) error {
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		if err := e.run(w, iters); err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
