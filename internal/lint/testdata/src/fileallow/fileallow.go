// Package fileallow seeds the file-wide directive: every walltime
// finding in this file is suppressed at the source, so no want markers
// exist here.
//
//lint:file-allow walltime fixture: timing-only diagnostics file
package fileallow

import "time"

// Elapsed reads the wall clock freely under the file-wide grant.
func Elapsed(t0 time.Time) float64 {
	return time.Since(t0).Seconds()
}

// Stamp also stays silent.
func Stamp() int64 {
	return time.Now().UnixNano()
}
