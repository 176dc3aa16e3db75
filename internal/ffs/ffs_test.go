package ffs

import (
	"math/rand"
	"testing"
)

// checkAll cross-checks FindFirst from every start bit against a naive
// scan of set, a plain bool array mirroring the bitmap. Walking the starts
// downwards keeps the scan to one pass: the answer for start is start
// itself when set, else the answer for start+1.
func checkAll(t *testing.T, step int, b *Bitmap, set *[Size]bool) {
	t.Helper()
	want := -1
	for start := Size - 1; start >= 0; start-- {
		if set[start] {
			want = start
		}
		if got := b.FindFirst(start); got != want {
			t.Fatalf("step %d: FindFirst(%d)=%d, naive scan says %d", step, start, got, want)
		}
	}
}

// TestFindFirstWordBoundaries sets single bits and pairs on every side of
// each word boundary — the first and last bit of a word, and the
// neighbours across it — where the masked first word hands over to the
// summary level.
func TestFindFirstWordBoundaries(t *testing.T) {
	var b Bitmap
	var set [Size]bool
	step := 0
	for w := 0; w < 64; w++ {
		for _, i := range []int{w << 6, w<<6 + 1, w<<6 + 62, w<<6 + 63} {
			b.Set(i)
			set[i] = true
			checkAll(t, step, &b, &set)
			step++
			b.Clear(i)
			set[i] = false
		}
	}
	// Pairs straddling each boundary: the lower bit must hide the upper
	// one until it is cleared, and clearing the last bit of a word must
	// drop its summary bit.
	for w := 1; w < 64; w++ {
		lo, hi := w<<6-1, w<<6
		b.Set(lo)
		b.Set(hi)
		set[lo], set[hi] = true, true
		checkAll(t, step, &b, &set)
		b.Clear(lo)
		set[lo] = false
		checkAll(t, step, &b, &set)
		b.Clear(hi)
		set[hi] = false
		checkAll(t, step, &b, &set)
		step++
	}
	if b.FindFirst(0) != -1 || b.FindFirst(Size-1) != -1 {
		t.Fatal("empty bitmap reports a set bit")
	}
}

// TestFindFirstProperty drives random Set/Clear/Reset sequences at several
// densities and cross-checks every start bit after each mutation.
func TestFindFirstProperty(t *testing.T) {
	for _, density := range []int{2, 64, 1024} {
		rng := rand.New(rand.NewSource(int64(density)))
		var b Bitmap
		var set [Size]bool
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(100); {
			case r == 0:
				b.Reset()
				set = [Size]bool{}
			case r < 60:
				// Cluster writes inside a window so some words fill up
				// while others stay empty.
				i := rng.Intn(density) * (Size / density)
				i += rng.Intn(Size / density)
				b.Set(i)
				set[i] = true
			default:
				i := rng.Intn(Size)
				b.Clear(i)
				set[i] = false
			}
			checkAll(t, step, &b, &set)
		}
	}
}

// TestResetClearsEverything fills every word and checks Reset empties them
// all, not only those the summary happens to mark.
func TestResetClearsEverything(t *testing.T) {
	var b Bitmap
	for i := 0; i < Size; i += 63 {
		b.Set(i)
	}
	b.Reset()
	var none [Size]bool
	checkAll(t, 0, &b, &none)
}
