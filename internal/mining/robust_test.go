package mining

import (
	"context"
	"errors"
	"testing"
	"time"

	"dfpc/internal/dataset"
	"dfpc/internal/guard"
	"dfpc/internal/obs"
)

// starDS builds a one-class dataset of n rows where row i holds a
// unique value of attribute "u" plus the shared single-valued attribute
// "s". At absolute support 1 the all-pattern pool has 2n+1 members; at
// absolute support >= 2 only {s=1} survives — so a geometric min_sup
// escalation collapses the pool below any small budget.
func starDS(n int) *dataset.Binary {
	values := make([]string, n)
	for i := range values {
		values[i] = string(rune('a' + i%26))
		if i >= 26 {
			values[i] += string(rune('0' + i/26))
		}
	}
	d := &dataset.Dataset{
		Name: "star",
		Attrs: []dataset.Attribute{
			{Name: "u", Kind: dataset.Categorical, Values: values},
			{Name: "s", Kind: dataset.Categorical, Values: []string{"1"}},
		},
		Classes: []string{"only"},
	}
	for i := 0; i < n; i++ {
		d.Rows = append(d.Rows, []float64{float64(i), 0})
		d.Labels = append(d.Labels, 0)
	}
	b, err := dataset.Encode(d)
	if err != nil {
		panic(err)
	}
	return b
}

// denseTx builds nTx identical transactions over nItems items, so
// all-pattern mining at absolute support 1 enumerates 2^nItems − 1
// itemsets — long enough for a mid-run cancellation to land.
func denseTx(nTx, nItems int) [][]int32 {
	row := make([]int32, nItems)
	for i := range row {
		row[i] = int32(i)
	}
	tx := make([][]int32, nTx)
	for i := range tx {
		tx[i] = row
	}
	return tx
}

func TestMinePerClassPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MinePerClass(twoClassDS(), PerClassOptions{MinSupport: 0.5, Guard: guard.New(ctx, guard.Limits{})})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

func TestMineCanceledMidRecursion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	// 2^18 − 1 itemsets takes far longer than the 1ms fuse; the
	// amortized guard check inside the recursion must observe the
	// cancellation and abort.
	_, err := mineAll(denseTx(2, 18), Options{MinSupport: 1, Guard: guard.New(ctx, guard.Limits{})})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

// expiredGuard returns a guard whose wall-clock deadline has passed.
func expiredGuard() *guard.Guard {
	g := guard.New(nil, guard.Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	return g
}

func TestMineDeadlineExceeded(t *testing.T) {
	_, err := MinePerClass(twoClassDS(), PerClassOptions{
		MinSupport: 0.5,
		Guard:      expiredGuard(),
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("err = %v does not wrap guard.ErrDeadline", err)
	}
}

func TestAdaptiveEscalatesAndSucceeds(t *testing.T) {
	b := starDS(8)
	o := obs.New()
	opt := PerClassOptions{MinSupport: 0.1, Closed: false, MaxPatterns: 5, Obs: o}
	ps, degs, usedSup, err := MinePerClassAdaptive(b, opt, Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("patterns = %d, want 1 (only the shared item survives)", len(ps))
	}
	checkCovers(t, b, ps)
	if len(degs) != 1 {
		t.Fatalf("degradations = %d, want 1", len(degs))
	}
	if degs[0].FromMinSupport != 0.1 || degs[0].ToMinSupport != 0.2 {
		t.Fatalf("degradation = %+v, want 0.1 -> 0.2", degs[0])
	}
	if usedSup != 0.2 {
		t.Fatalf("usedSup = %v, want 0.2", usedSup)
	}
	if got := o.Counter("mine.degradations").Value(); got != 1 {
		t.Fatalf("mine.degradations counter = %d, want 1", got)
	}
}

func TestAdaptiveExhaustsRetries(t *testing.T) {
	// twoClassDS keeps > 2 patterns at every support up to the 0.5 cap,
	// so a budget of 2 can never fit and the escalation must give up.
	b := twoClassDS()
	opt := PerClassOptions{MinSupport: 0.1, Closed: false, MaxPatterns: 2}
	_, _, _, err := MinePerClassAdaptive(b, opt, Backoff{})
	if !errors.Is(err, guard.ErrDegraded) {
		t.Fatalf("err = %v, want guard.ErrDegraded", err)
	}
	if !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("err = %v does not also wrap ErrPatternBudget", err)
	}
}

func TestAdaptivePassesNonBudgetErrorsThrough(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := PerClassOptions{MinSupport: 0.5, Guard: guard.New(ctx, guard.Limits{})}
	_, degs, _, err := MinePerClassAdaptive(twoClassDS(), opt, Backoff{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if errors.Is(err, guard.ErrDegraded) || len(degs) != 0 {
		t.Fatalf("cancellation must not be reported as degradation (err %v, degs %v)", err, degs)
	}
}
