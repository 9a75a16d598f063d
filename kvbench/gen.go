package main

import (
	"encoding/binary"
	"math"
)

// The benchmark owns its generators: a later change to internal/ycsb must
// not be able to change the load.

// rng is SplitMix64: one word of state, so every connection, phase and
// depth gets its own stream from (seed, stream id) without sharing.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keyDist draws key indices in [0, n).
type keyDist struct {
	n uint64
	// Zipf constants (Gray et al., "Quickly generating billion-record
	// synthetic databases"); theta == 0 means uniform.
	theta, alpha, zetan, eta, half float64
}

const zipfTheta = 0.99

func newUniform(n uint64) *keyDist { return &keyDist{n: n} }

func newZipf(n uint64) *keyDist {
	d := &keyDist{n: n, theta: zipfTheta}
	for i := uint64(1); i <= n; i++ {
		d.zetan += 1 / math.Pow(float64(i), d.theta)
	}
	d.half = math.Pow(0.5, d.theta)
	d.alpha = 1 / (1 - d.theta)
	d.eta = (1 - math.Pow(2/float64(n), 1-d.theta)) / (1 - (1+d.half)/d.zetan)
	return d
}

// draw returns the next key index. Zipf ranks are scrambled by a hash so
// the popular keys are scattered over the key space (and so over the log,
// which is loaded in index order) instead of sitting at its oldest end.
func (d *keyDist) draw(r *rng) uint64 {
	if d.theta == 0 {
		return r.next() % d.n
	}
	u := r.float()
	uz := u * d.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+d.half:
		rank = 1
	default:
		rank = uint64(float64(d.n) * math.Pow(d.eta*u-d.eta+1, d.alpha))
		if rank >= d.n {
			rank = d.n - 1
		}
	}
	return mix64(rank+0x5851f42d4c957f2d) % d.n
}

const (
	keyLen   = 16
	valueLen = 100
	hexDigit = "0123456789abcdef"
)

// putKey writes the fixed-width 16-byte key of index idx: one prefix byte
// ('k' for values, 'c' for counters) and 15 hex digits.
func putKey(dst []byte, prefix byte, idx uint64) {
	dst[0] = prefix
	for i := keyLen - 1; i >= 1; i-- {
		dst[i] = hexDigit[idx&0xf]
		idx >>= 4
	}
}

// putValue writes the 100-byte value of (key idx, version): the key, the
// version in hex, and filler derived from both, so a reply can be checked
// byte for byte against what the connection last wrote.
func putValue(dst []byte, idx uint64, ver uint32) {
	putKey(dst, 'k', idx)
	v := uint64(ver)
	for i := 31; i >= 16; i-- {
		dst[i] = hexDigit[v&0xf]
		v >>= 4
	}
	f := mix64(idx<<32 | uint64(ver))
	for i := 32; i < valueLen; i++ {
		dst[i] = 'a' + byte((f>>(uint(i)&31))&15)
	}
}

// putKey8 writes the 8-byte binary key embedded_ycsb uses.
func putKey8(dst []byte, idx uint64) { binary.LittleEndian.PutUint64(dst, idx) }
