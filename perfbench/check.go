package main

// Output and model checks shared by the workloads.

import (
	"fmt"
	"math"
)

// diffFloat32 returns the first index where got and want differ in any
// bit, or -1 when they are bit-identical.
func diffFloat32(got, want []float32) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// diffComplex64 is diffFloat32 for complex vectors.
func diffComplex64(got, want []complex64) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(real(got[i])) != math.Float32bits(real(want[i])) ||
			math.Float32bits(imag(got[i])) != math.Float32bits(imag(want[i])) {
			return i
		}
	}
	return -1
}

// conserve checks that a model total equals the sum of its parts when both
// are read from the program's float counters. The parts are deltas of
// running totals of size up to scale, so they carry that many ulps of
// rounding; a missing or double-counted part misses by its whole size.
func conserve(what string, total, scale float64, parts ...float64) error {
	var sum float64
	for _, p := range parts {
		sum += p
	}
	tol := 64 * 0x1p-52 * (math.Abs(total) + math.Abs(scale))
	if math.Abs(sum-total) > tol {
		return fmt.Errorf("model %s: parts sum to %g, total is %g (off by %g, rounding allows %g)", what, sum, total, sum-total, tol)
	}
	return nil
}
