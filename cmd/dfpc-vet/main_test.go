package main

import "testing"

// The fixture tree of internal/analysis doubles as the CLI's exit-code
// oracle: a clean package exits 0, findings exit 1, a type-broken
// package exits 2 (and CI greps stderr accordingly).
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"."}, 0},
		{"findings", []string{"../../internal/analysis/testdata/src/floateq/measures"}, 1},
		{"load failure", []string{"../../internal/analysis/testdata/broken"}, 2},
		{"load failure wins over findings", []string{
			"../../internal/analysis/testdata/broken",
			"../../internal/analysis/testdata/src/floateq/measures",
		}, 2},
		{"waivers with reasons", []string{"-waivers", "../../internal/analysis/testdata/src/ctxfirst/ctxdemo"}, 0},
		{"waiver names unknown analyzer", []string{"-waivers", "./testdata/unknownwaiver"}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(c.args); got != c.want {
				t.Errorf("run(%v) = %d, want %d", c.args, got, c.want)
			}
		})
	}
}
