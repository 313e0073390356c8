package rules

import (
	"testing"

	"dfpc/internal/dataset"
)

// patternedDS builds a dataset where {a=0 ∧ b=0} → class 0 and
// {a=1 ∧ b=1} → class 1, with a noisy third attribute.
func patternedDS() *dataset.Binary {
	d := &dataset.Dataset{
		Name: "pat",
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical, Values: []string{"0", "1"}},
			{Name: "b", Kind: dataset.Categorical, Values: []string{"0", "1"}},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"0", "1"}},
		},
		Classes: []string{"neg", "pos"},
	}
	for i := 0; i < 20; i++ {
		noise := float64(i % 2)
		if i < 10 {
			d.Rows = append(d.Rows, []float64{0, 0, noise})
			d.Labels = append(d.Labels, 0)
		} else {
			d.Rows = append(d.Rows, []float64{1, 1, noise})
			d.Labels = append(d.Labels, 1)
		}
	}
	b, err := dataset.Encode(d)
	if err != nil {
		panic(err)
	}
	return b
}

func TestRuleMatches(t *testing.T) {
	r := Rule{Items: []int32{1, 4}}
	if !r.matches([]int32{0, 1, 4, 7}) {
		t.Fatal("should match")
	}
	if r.matches([]int32{1, 5}) {
		t.Fatal("should not match")
	}
	empty := Rule{}
	if !empty.matches([]int32{3}) {
		t.Fatal("empty antecedent matches everything")
	}
}

func TestCBATrainPredict(t *testing.T) {
	b := patternedDS()
	m, err := TrainCBA(b, CBAOptions{MinSupport: 0.3, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rules) == 0 {
		t.Fatal("no rules kept")
	}
	// Training accuracy must be perfect on this separable data.
	for i := 0; i < b.NumRows(); i++ {
		if got := m.Predict(b.Rows[i]); got != b.Labels[i] {
			t.Fatalf("row %d = %d, want %d", i, got, b.Labels[i])
		}
	}
}

func TestCBARulesSortedByConfidence(t *testing.T) {
	b := patternedDS()
	m, err := TrainCBA(b, CBAOptions{MinSupport: 0.2, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(m.Rules); i++ {
		if m.Rules[i].Confidence > m.Rules[i-1].Confidence+1e-12 {
			t.Fatal("rules not in confidence order")
		}
	}
}

func TestCBADefaultClass(t *testing.T) {
	b := patternedDS()
	m, err := TrainCBA(b, CBAOptions{MinSupport: 0.3, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// A transaction matching nothing falls back to the default class.
	got := m.Predict([]int32{})
	if got != m.DefaultClass {
		t.Fatalf("unmatched predicts %d, want default %d", got, m.DefaultClass)
	}
}

func TestCBAEmptyTraining(t *testing.T) {
	d := &dataset.Dataset{
		Name:    "empty",
		Attrs:   []dataset.Attribute{{Name: "a", Kind: dataset.Categorical, Values: []string{"0"}}},
		Classes: []string{"x"},
	}
	b, _ := dataset.Encode(d)
	if _, err := TrainCBA(b, CBAOptions{}); err == nil {
		t.Fatal("empty training should error")
	}
}

func TestHarmonyTrainPredict(t *testing.T) {
	b := patternedDS()
	m, err := TrainHarmony(b, HarmonyOptions{MinSupport: 0.3, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rules) == 0 {
		t.Fatal("no rules kept")
	}
	for i := 0; i < b.NumRows(); i++ {
		if got := m.Predict(b.Rows[i]); got != b.Labels[i] {
			t.Fatalf("row %d = %d, want %d", i, got, b.Labels[i])
		}
	}
}

func TestHarmonyEveryInstanceCovered(t *testing.T) {
	b := patternedDS()
	m, err := TrainHarmony(b, HarmonyOptions{MinSupport: 0.3, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Instance-centric guarantee: every training instance has at least
	// one kept rule of its own class covering it (on this separable
	// data where such rules exist).
	for i := 0; i < b.NumRows(); i++ {
		found := false
		for ri := range m.Rules {
			if m.Rules[ri].Class == b.Labels[i] && m.Rules[ri].matches(b.Rows[i]) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("instance %d has no covering rule", i)
		}
	}
}

func TestHarmonyDefaultOnNoMatch(t *testing.T) {
	b := patternedDS()
	m, err := TrainHarmony(b, HarmonyOptions{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]int32{}); got != m.DefaultClass {
		t.Fatalf("unmatched predicts %d, want default", got)
	}
}

func TestHarmonyTopKLimitsRuleSet(t *testing.T) {
	b := patternedDS()
	m1, err := TrainHarmony(b, HarmonyOptions{MinSupport: 0.1, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	m5, err := TrainHarmony(b, HarmonyOptions{MinSupport: 0.1, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m5.Rules) < len(m1.Rules) {
		t.Fatalf("TopK=5 kept %d rules < TopK=1 kept %d", len(m5.Rules), len(m1.Rules))
	}
}

func TestGenerateRulesConfidence(t *testing.T) {
	b := patternedDS()
	rs, err := generateRules(b, 0.3, 0.9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Confidence < 0.9 {
			t.Fatalf("rule with confidence %v below threshold", r.Confidence)
		}
		cover := b.Cover(r.Items)
		hit := cover.AndCount(b.ClassMasks[r.Class])
		wantConf := float64(hit) / float64(cover.Count())
		if r.Confidence != wantConf || r.Support != hit {
			t.Fatalf("rule stats inconsistent: %+v", r)
		}
	}
}
