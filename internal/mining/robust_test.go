package mining

import (
	"context"
	"errors"
	"testing"
	"time"

	"dfpc/internal/guard"
)

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
