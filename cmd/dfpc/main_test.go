package main

import (
	"testing"

	"dfpc"
)

func TestParseFamilyAndLearner(t *testing.T) {
	families := []struct {
		in   string
		want dfpc.Family
		ok   bool
	}{
		{"item_all", dfpc.ItemAll, true},
		{"ItemFS", dfpc.ItemFS, true},
		{"item_rbf", dfpc.ItemRBF, true},
		{"pat_all", dfpc.PatAll, true},
		{"PAT_FS", dfpc.PatFS, true},
		{"pat-fs", 0, false},
		{"", 0, false},
	}
	for _, c := range families {
		got, err := parseFamily(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("parseFamily(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}

	learners := []struct {
		in   string
		want dfpc.Learner
		ok   bool
	}{
		{"svm", dfpc.SVM, true},
		{"SVM", dfpc.SVM, true},
		{"c45", dfpc.C45, true},
		{"C4.5", dfpc.C45, true},
		{"nbayes", 0, false}, // removed learners are unknown names now
		{"knn", 0, false},
		{"svn", 0, false}, // a typo must not silently train an SVM
		{"tree", 0, false},
		{"", 0, false},
	}
	for _, c := range learners {
		got, err := parseLearner(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("parseLearner(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
