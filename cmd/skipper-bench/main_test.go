package main

import (
	"hash/fnv"
	"testing"
)

// TestAllExperimentsGolden pins the FNV-64a digest of `skipper-bench -exp
// all -iters 30`: every E-table is deterministic (simulated time, seeded
// scenes), so a change to any printed figure is a change of this digest.
// Update it to the digest the failure reports only when a table is meant to
// change.
func TestAllExperimentsGolden(t *testing.T) {
	const want uint64 = 0x920680b9d15f688e
	h := fnv.New64a()
	if err := run(h, map[string]bool{"all": true}, 30); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("skipper-bench -exp all -iters 30 digest = %#x, want %#x", got, want)
	}
}

func TestSelectExperiments(t *testing.T) {
	for _, c := range []struct {
		exp  string
		want []string // nil = rejected
	}{
		{"all", []string{"all"}},
		{"e1", []string{"e1"}},
		{"E2, e11", []string{"e2", "e11"}},
		{"e12", nil},
		{"e0", nil},
		{"e1,bogus", nil},
		{"", nil},
	} {
		got, err := selectExperiments(c.exp)
		if c.want == nil {
			if err == nil {
				t.Errorf("-exp %q accepted as %v, want an error", c.exp, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", c.exp, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("-exp %q selected %v, want %v", c.exp, got, c.want)
		}
		for _, name := range c.want {
			if !got[name] {
				t.Errorf("-exp %q did not select %s", c.exp, name)
			}
		}
	}
}
