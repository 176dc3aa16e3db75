// Package ffs is the repo's one find-first-set primitive: a fixed
// 4096-bit, two-level occupancy bitmap that finds the lowest set bit at or
// after any position with two TrailingZeros64 instructions.
//
// Bucketed structures keep one bit per bucket (set while the bucket is
// non-empty) and ask the bitmap for the next occupied bucket instead of
// scanning. It is the structure Eiffel (Saeed et al., NSDI 2019) builds its
// integer priority queues on; sched.BucketQ uses it for rank buckets and
// sim.Engine for its timing wheel.
package ffs

import "math/bits"

// Size is the number of bits in a Bitmap: 64 words of 64 bits, so one
// summary word indexes every word.
const Size = 64 * 64

// Bitmap is a 4096-bit set. Bit i lives in words[i>>6]; bit w of summary
// is set exactly when words[w] is non-zero. The zero value is empty and
// ready to use.
type Bitmap struct {
	words   [64]uint64
	summary uint64
}

// Set marks bit i (0 ≤ i < Size).
func (b *Bitmap) Set(i int) {
	b.words[(i>>6)&63] |= 1 << uint(i&63)
	b.summary |= 1 << uint((i>>6)&63)
}

// Clear unmarks bit i (0 ≤ i < Size).
func (b *Bitmap) Clear(i int) {
	w := (i >> 6) & 63
	b.words[w] &^= 1 << uint(i&63)
	if b.words[w] == 0 {
		b.summary &^= 1 << uint(w)
	}
}

// FindFirst returns the lowest set bit ≥ start (0 ≤ start < Size), or -1
// when there is none: one masked TrailingZeros64 over the word holding
// start, then one over the summary for the words above it.
func (b *Bitmap) FindFirst(start int) int {
	w := (start >> 6) & 63
	if masked := b.words[w] &^ (uint64(1)<<uint(start&63) - 1); masked != 0 {
		return w<<6 + bits.TrailingZeros64(masked)
	}
	if rest := b.summary &^ (uint64(2)<<uint(w) - 1); rest != 0 {
		w = bits.TrailingZeros64(rest)
		return w<<6 + bits.TrailingZeros64(b.words[w])
	}
	return -1
}

// Reset clears every bit. Only the words the summary marks are touched.
func (b *Bitmap) Reset() {
	for s := b.summary; s != 0; s &= s - 1 {
		b.words[bits.TrailingZeros64(s)] = 0
	}
	b.summary = 0
}
