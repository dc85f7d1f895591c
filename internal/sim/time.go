// Package sim holds the picosecond clock the models share. No event engine
// exists: the DRAM controller computes each request's command schedule
// analytically and dram.RunOpenLoop walks its own request slab as the
// calendar.
//
// Times are int64 picoseconds. Picosecond resolution lets the DRAM model
// express exact DDR4-2333 bus cycles (857.6 ps) and the core models express
// sub-nanosecond cycle times without rounding drift across frequencies.
package sim

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time unit helpers.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }
