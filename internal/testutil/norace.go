//go:build !race

package testutil

// RaceEnabled reports whether the race detector is on. Allocation-count
// tests skip under it: sync.Pool drops items at random there, so pooled
// scratch is reallocated mid-test.
const RaceEnabled = false
