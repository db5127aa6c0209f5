package main

import "testing"

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
