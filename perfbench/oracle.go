package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// The remote workload's closed-form oracle. strata-worker scores layer l
// as 10·power(l) and each result is the sum of the -window scores ending at
// l; its durable sink keys results by sequence number, which equals the
// layer, and DONE reports the sha256 of the dump of those effects.

// layerPower is the laser power of layer l (1-based) under seed: a whole
// number of watts in 200..350, so every score and every windowed sum is
// exact in float64 whatever order the worker adds them in.
func layerPower(seed int64, l int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(l)*0xD1B54A32D192ED03
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(200 + x%151)
}

// windowSums returns, for layers 1..len(powers), the sum of the scores
// 10·power over the window of layers (l-window, l].
func windowSums(powers []float64, window int) []float64 {
	out := make([]float64, len(powers))
	for l := 1; l <= len(powers); l++ {
		sum := 0.0
		for x := l - window + 1; x <= l; x++ {
			if x >= 1 {
				sum += 10 * powers[x-1]
			}
		}
		out[l-1] = sum
	}
	return out
}

// expectedDump is strata-worker's effect dump for these sums: one line
// "out/<seq %016x> <hex of big-endian (layer, uint64(sum))>" per layer.
func expectedDump(sums []float64) []byte {
	var buf []byte
	for i, s := range sums {
		l := uint64(i + 1)
		var v [16]byte
		binary.BigEndian.PutUint64(v[:8], l)
		binary.BigEndian.PutUint64(v[8:], uint64(s))
		buf = fmt.Appendf(buf, "out/%016x %x\n", l, v[:])
	}
	return buf
}

// expectedDigest is the DONE line strata-worker prints for these sums.
func expectedDigest(sums []float64) string {
	return fmt.Sprintf("%x", sha256.Sum256(expectedDump(sums)))
}
