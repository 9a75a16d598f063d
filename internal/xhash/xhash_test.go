package xhash

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMix64Avalanche(t *testing.T) {
	// Flipping any single input bit must flip a substantial fraction of
	// output bits (the property the index relies on: offsets come from
	// the low bits, tags from the high bits).
	const samples = 200
	for bit := 0; bit < 64; bit++ {
		var totalFlips int
		for s := uint64(1); s <= samples; s++ {
			a := Mix64(s)
			b := Mix64(s ^ 1<<bit)
			totalFlips += bits.OnesCount64(a ^ b)
		}
		avg := float64(totalFlips) / samples
		if avg < 24 || avg > 40 {
			t.Fatalf("bit %d: average flips %.1f, want ~32", bit, avg)
		}
	}
}

func TestUint64Deterministic(t *testing.T) {
	if Uint64(42) != Uint64(42) {
		t.Fatal("hash not deterministic")
	}
	if Uint64(42) == Uint64(43) {
		t.Fatal("adjacent keys collide")
	}
}

func TestBytesMatchesUint64For8Bytes(t *testing.T) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 0xdeadbeef)
	if Bytes(b[:]) != Uint64(0xdeadbeef) {
		t.Fatal("8-byte Bytes must equal Uint64 of the same key")
	}
}

func TestBytesVariableLengths(t *testing.T) {
	seen := map[uint64]string{}
	inputs := []string{"", "a", "ab", "abc", "abcdefg", "abcdefgh", "abcdefghi",
		"key-1", "key-2", "completely different key material"}
	for _, in := range inputs {
		h := Bytes([]byte(in))
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision between %q and %q", prev, in)
		}
		seen[h] = in
	}
}

// Property: the low bits of the hash are uniform for runs of sequential
// keys (the index's bucket offset source). Each trial hashes 4096
// sequential keys into 64 buckets and bounds Pearson's chi-square
// statistic by the p = 1e-6 upper critical value of the chi-square
// distribution with 63 degrees of freedom (131.37, computed below). A
// uniform hash fails one trial with probability 1e-6, so a run of 10
// trials raises a false alarm with probability about 1e-5.
func TestQuickLowBitsSpread(t *testing.T) {
	const buckets, perBucket = 64, 64
	bound := chiSquareCritical(buckets-1, 1e-6)
	if math.Abs(bound-131.37) > 0.01 {
		t.Fatalf("chi-square(63) critical value at p=1e-6 = %.3f, want 131.37", bound)
	}
	f := func(start uint64) bool {
		var counts [buckets]int
		for i := uint64(0); i < buckets*perBucket; i++ {
			counts[Uint64(start+i)%buckets]++
		}
		var chi2 float64
		for _, c := range counts {
			d := float64(c - perBucket)
			chi2 += d * d / perBucket
		}
		return chi2 <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// chiSquareCritical returns the x with P(X > x) = p for X chi-square
// distributed with k degrees of freedom, by bisection on chiSquareSF.
func chiSquareCritical(k int, p float64) float64 {
	lo, hi := float64(k)+2, 10*float64(k)
	for range 100 {
		if mid := (lo + hi) / 2; chiSquareSF(mid, k) > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// chiSquareSF returns P(X > x) for X chi-square distributed with k degrees
// of freedom: the regularized upper incomplete gamma function Q(k/2, x/2),
// from its continued fraction by the modified Lentz method (Numerical
// Recipes §6.2; it converges quickly for x > k+2, where it is used here).
func chiSquareSF(x float64, k int) float64 {
	const tiny = 1e-300
	a, z := float64(k)/2, x/2
	b := z + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for i := 1.0; i < 1000; i++ {
		an := -i * (i - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		delta := d * c
		h *= delta
		if math.Abs(delta-1) < 1e-15 {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-z+a*math.Log(z)-lg) * h
}
