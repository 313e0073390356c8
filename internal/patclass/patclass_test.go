package patclass

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dfpc/internal/guard"
	"dfpc/internal/mining"
)

// stubHooks mine three distinct patterns from every class partition
// and, like PrefixSpan and the graph miner, read a cap of 0 as
// unlimited.
func stubHooks() Hooks[int32, string] {
	return Hooks[int32, string]{
		Name: "stub",
		Mine: func(db []int32, _, maxPatterns int, _ *guard.Guard) ([]string, error) {
			var ps []string
			for k := 0; k < 3; k++ {
				if maxPatterns > 0 && len(ps) >= maxPatterns {
					return ps, mining.ErrPatternBudget
				}
				ps = append(ps, fmt.Sprintf("%d/%d", db[0], k))
			}
			return ps, nil
		},
		Key:      func(p *string) string { return *p },
		Contains: func(i int32, p *string) bool { return strings.HasPrefix(*p, fmt.Sprint(i)+"/") },
		Labels:   func(i int32) []int32 { return []int32{i} },
		Sort:     slices.Sort[[]string],
	}
}

// TestFitExactBudget pins the budget carried across classes: when
// class 0 fills MaxPatterns exactly, class 1 fails with the budget
// error instead of being mined with an unlimited cap of 0.
func TestFitExactBudget(t *testing.T) {
	db, y := []int32{0, 0, 1, 1}, []int{0, 0, 1, 1}
	prm := Params{MinSupport: 0.5, Coverage: 1, MaxPatterns: 6, SVMC: 1}
	m, err := Fit(context.Background(), stubHooks(), db, y, 2, prm)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mined != 6 {
		t.Fatalf("MaxPatterns=6: mined %d patterns, want 6", m.Mined)
	}
	prm.MaxPatterns = 3
	if _, err := Fit(context.Background(), stubHooks(), db, y, 2, prm); !errors.Is(err, mining.ErrPatternBudget) {
		t.Fatalf("class 0 fills MaxPatterns=3: err = %v, want the budget error", err)
	}
}
