package analysis

import (
	"strings"
	"testing"
)

// loadRealGraph builds the call graph over the production packages the
// reachability contracts are written for.
func loadRealGraph(t *testing.T) *CallGraph {
	t.Helper()
	pkgs, err := Load(".",
		"dfpc/internal/core",
		"dfpc/internal/svm",
		"dfpc/internal/mining",
		"dfpc/internal/dataset",
		"dfpc/internal/discretize",
	)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, p := range pkgs {
		if len(p.Errs) > 0 {
			t.Fatalf("package %s failed to load: %v", p.ImportPath, p.Errs)
		}
	}
	return BuildCallGraph(pkgs)
}

// TestCallGraphReachability pins the determinism set on the real
// pipeline: nondeterm's soundness rests on these memberships, so a
// refactor that silently drops (say) SVM training out of the cone must
// fail here, not ship.
func TestCallGraphReachability(t *testing.T) {
	g := loadRealGraph(t)

	inDeterminism := []string{
		"(*dfpc/internal/core.Pipeline).Fit",
		"(*dfpc/internal/core.Pipeline).FitContext",
		"dfpc/internal/mining.FPClose",
		"dfpc/internal/svm.Train", // training is part of Fit's cone
	}
	for _, key := range inDeterminism {
		if !g.Determinism[key] {
			t.Errorf("%s not in the determinism domain", key)
		}
	}
}

// TestCallGraphEdges spot-checks direct edges so reachability failures
// are debuggable at the edge level.
func TestCallGraphEdges(t *testing.T) {
	g := loadRealGraph(t)
	callees := g.Callees("(*dfpc/internal/core.Pipeline).Fit")
	if len(callees) == 0 {
		t.Fatal("Pipeline.Fit has no outgoing edges")
	}
	found := false
	for _, c := range callees {
		if strings.Contains(c, "FitContext") {
			found = true
		}
	}
	if !found {
		t.Errorf("Pipeline.Fit does not call FitContext; callees: %v", callees)
	}
}
