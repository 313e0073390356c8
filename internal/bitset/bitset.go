// Package bitset provides a dense, fixed-capacity bitset used throughout
// the library to represent row-coverage sets: for a pattern α over a
// dataset D, the bitset holds one bit per instance, set iff the instance
// contains α. Mining, discriminative measures, and MMRFS all reduce to
// cheap And/Count operations on these sets.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a dense bitset with a fixed logical length set at creation.
// The zero value is an empty bitset of length 0; use New for a sized one.
type Bitset struct {
	words []uint64
	n     int // logical number of bits
}

// New returns a Bitset able to hold n bits, all cleared.
func New(n int) *Bitset {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices builds a bitset of length n with the given bits set.
func FromIndices(n int, idx []int) *Bitset {
	b := New(n)
	for _, i := range idx {
		b.Set(i)
	}
	return b
}

// Len returns the logical number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with the contents of src. Lengths must match.
func (b *Bitset) CopyFrom(src *Bitset) {
	b.mustMatch(src)
	copy(b.words, src.words)
}

func (b *Bitset) mustMatch(o *Bitset) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitset: length mismatch %d vs %d", b.n, o.n))
	}
}

// And sets b = b ∩ o.
func (b *Bitset) And(o *Bitset) {
	b.mustMatch(o)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or sets b = b ∪ o.
func (b *Bitset) Or(o *Bitset) {
	b.mustMatch(o)
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndCount returns |b ∩ o| without allocating.
func (b *Bitset) AndCount(o *Bitset) int {
	b.mustMatch(o)
	c := 0
	for i := range b.words {
		c += bits.OnesCount64(b.words[i] & o.words[i])
	}
	return c
}

// Equal reports whether b and o have identical length and contents.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// SetAll sets every bit in [0, Len).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim zeroes the bits above the logical length so Count stays exact.
func (b *Bitset) trim() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Indices returns the positions of all set bits in ascending order.
func (b *Bitset) Indices() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls fn for each set bit in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*wordBits + tz)
			w &= w - 1
		}
	}
}

// String renders the bitset as a 0/1 string, bit 0 first. Intended for
// tests and debugging on small sets.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
