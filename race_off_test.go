//go:build !race

package repro

// raceEnabled reports whether the race detector is compiled in; the
// full-configuration figure regeneration skips under it.
const raceEnabled = false
