// sequence_classification demonstrates the paper's future-work
// extension (Section 6: "The framework is also applicable to more
// complex patterns, including sequences and graphs"): classification of
// event sequences using discriminative frequent subsequences mined with
// PrefixSpan and selected with MMRFS.
//
// The synthetic task is order-sensitive by construction: class 0
// sessions contain the motif login→purchase, class 1 sessions the
// motif purchase→login (a fraud-like signature). The event VOCABULARY
// is identical in both classes — only the order discriminates, so
// bag-of-events models fail while subsequence features succeed.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"dfpc/internal/seqmining"
)

var eventNames = []string{"browse", "search", "cart", "review", "help", "login", "purchase"}

func makeSessions(n int, seed int64) (db []seqmining.Sequence, y []int) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := i % 2
		var s seqmining.Sequence
		for j := 0; j < 3+r.Intn(5); j++ {
			s = append(s, int32(r.Intn(5))) // noise events 0..4
		}
		if c == 0 {
			s = append(s, 5) // login
			s = append(s, int32(r.Intn(5)))
			s = append(s, 6) // purchase
		} else {
			s = append(s, 6) // purchase first…
			s = append(s, int32(r.Intn(5)))
			s = append(s, 5) // …then login
		}
		for j := 0; j < r.Intn(3); j++ {
			s = append(s, int32(r.Intn(5)))
		}
		db = append(db, s)
		y = append(y, c)
	}
	return db, y
}

func render(events []int32) string {
	out := ""
	for i, e := range events {
		if i > 0 {
			out += " → "
		}
		out += eventNames[e]
	}
	return out
}

func main() {
	train, yTrain := makeSessions(300, 1)
	test, yTest := makeSessions(120, 2)
	fmt.Printf("%d training sessions, %d test sessions, 2 classes\n\n", len(train), len(test))

	clf := &seqmining.Classifier{MinSupport: 0.4, MaxLen: 3, Coverage: 3}
	if err := clf.Fit(context.Background(), train, yTrain, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subsequences mined: %d, selected by MMRFS: %d\n", clf.MinedCount, clf.FeatureCount)

	pred, err := clf.PredictAll(test)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i := range pred {
		if pred[i] == yTest[i] {
			correct++
		}
	}
	fmt.Printf("test accuracy: %.2f%%\n\n", 100*float64(correct)/float64(len(pred)))

	// Show a few of the selected discriminative subsequences,
	// preferring ones that involve the signature events.
	fmt.Println("selected discriminative subsequences (sample):")
	shown := 0
	for _, p := range clf.Patterns() {
		if p.Events[0] >= 5 || p.Events[p.Len()-1] >= 5 {
			fmt.Printf("  %-30s support %d\n", render(p.Events), p.Support)
			if shown++; shown == 5 {
				break
			}
		}
	}
}
