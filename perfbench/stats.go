package main

import "sort"

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is the number of samples a reported tail percentile must
// leave above it: fewer would make the percentile one or two samples
// and too noisy to compare between runs.
const tailBeyond = 10

// tail returns the highest whole percentile p that leaves at least
// tailBeyond samples above it, and its nearest-rank value. With
// tailBeyond or fewer samples no percentile qualifies; p is then 0 and
// the value the smallest sample. An empty slice gives (0, 0).
func tail(xs []float64) (p int, v float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p = 99; p > 0; p-- {
		if n-rank(p, n) >= tailBeyond {
			break
		}
	}
	if p == 0 {
		return 0, s[0]
	}
	return p, s[rank(p, n)-1]
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}
