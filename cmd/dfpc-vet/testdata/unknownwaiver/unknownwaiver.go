// Package unknownwaiver carries a reasoned waiver for an analyzer that
// is not registered, as a deleted analyzer would leave behind.
package unknownwaiver

// Sum adds two ints.
func Sum(a, b int) int {
	//vet:ignore nosuch waiver for an analyzer that does not exist
	return a + b
}
