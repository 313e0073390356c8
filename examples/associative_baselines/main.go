// associative_baselines reproduces the paper's Section 5 comparison in
// miniature: the frequent-pattern framework (Pat_FS) against two
// associative classifiers — a CBA-style ordered rule list and a
// HARMONY-style instance-centric rule set — on the same binary item
// encoding. The paper reports Pat_FS beating HARMONY by up to 11.94%
// (Waveform) and 3.40% (Letter).
package main

import (
	"fmt"
	"log"

	"dfpc"
	"dfpc/internal/dataset"
	"dfpc/internal/rules"
)

func main() {
	d, err := dfpc.Generate("waveform", 1)
	if err != nil {
		log.Fatal(err)
	}
	// Subsample for a fast demo run; cmd/experiments -table harmony
	// runs the full-size comparison.
	train, test, err := dfpc.TrainTestSplit(d, 0.75, 5)
	if err != nil {
		log.Fatal(err)
	}
	sub := d.Subset(append(append([]int{}, train...), test...))
	nTrain := len(train)
	trainRows := make([]int, nTrain)
	testRows := make([]int, len(test))
	for i := range trainRows {
		trainRows[i] = i
	}
	for i := range testRows {
		testRows[i] = nTrain + i
	}
	fmt.Printf("dataset %s: %d train, %d test rows, %d classes\n\n",
		d.Name, len(trainRows), len(testRows), d.NumClasses())

	const minSup = 0.1

	// The frequent-pattern framework.
	clf := dfpc.NewClassifier(dfpc.PatFS, dfpc.SVM, dfpc.WithMinSupport(minSup))
	acc, err := dfpc.Evaluate(clf, sub, trainRows, testRows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pat_FS (framework):        %6.2f%%\n", 100*acc)

	// The rule-based baselines operate on the same binary encoding.
	bTrain, err := dataset.Encode(sub.Subset(trainRows))
	if err != nil {
		log.Fatal(err)
	}
	bTest, err := dataset.Encode(sub.Subset(testRows))
	if err != nil {
		log.Fatal(err)
	}

	harmony, err := rules.TrainHarmony(bTrain, rules.HarmonyOptions{MinSupport: minSup, TopK: 5, MaxLen: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HARMONY-style (%4d rules): %6.2f%%\n", len(harmony.Rules), evalRules(bTest, harmony.Predict))

	cba, err := rules.TrainCBA(bTrain, rules.CBAOptions{MinSupport: minSup, MinConfidence: 0.5, MaxLen: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CBA-style     (%4d rules): %6.2f%%\n", len(cba.Rules), evalRules(bTest, cba.Predict))
}

func evalRules(b *dataset.Binary, predict func([]int32) int) float64 {
	correct := 0
	for i := 0; i < b.NumRows(); i++ {
		if predict(b.Rows[i]) == b.Labels[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(b.NumRows())
}
