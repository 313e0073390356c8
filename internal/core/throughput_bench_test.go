package core

import (
	"fmt"
	"testing"

	"dfpc/internal/datagen"
)

// BenchmarkPredictThroughput measures the compiled predict path's
// serving rate at the batch sizes the future prediction server cares
// about: single-row (interactive), 64 (typical request batch), and
// 1024 (bulk scoring). rows/s is the headline number; ns/op remains
// comparable across runs because every op scores exactly `batch` rows.
func BenchmarkPredictThroughput(b *testing.B) {
	d := xorDataset(1024)
	rows := allRows(d.NumRows())
	p := NewPatFS(SVMLinear, 0.2)
	if err := p.Fit(d, rows); err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			in := rows[:batch]
			out := make([]int, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.PredictBatch(nil, d, in, out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			rowsPerSec := float64(batch) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rowsPerSec, "rows/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(batch)*float64(b.N)), "ns/row")
		})
	}
}

// BenchmarkFeaturize pits the compiled trie walk against the naive
// per-pattern containsAll oracle on a bundled dataset; the
// differential tests assert the two agree byte for byte.
func BenchmarkFeaturize(b *testing.B) {
	d, err := datagen.ByName("austral", 1)
	if err != nil {
		b.Fatal(err)
	}
	p := NewPatFS(SVMLinear, 0.15)
	if err := p.Fit(d, allRows(d.NumRows())); err != nil {
		b.Fatal(err)
	}
	bp, err := p.NewBatchPredictor()
	if err != nil {
		b.Fatal(err)
	}
	txs := make([][]int32, d.NumRows())
	for r := range txs {
		tx, err := bp.coder.encode(d.Rows[r], r)
		if err != nil {
			b.Fatal(err)
		}
		txs[r] = append([]int32(nil), tx...)
	}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tx := range txs {
				bp.fv = p.featureVectorInto(bp.fv[:0], tx, &bp.ms)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tx := range txs {
				_ = p.featureVectorNaive(tx)
			}
		}
	})
}
