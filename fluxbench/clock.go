package main

import "time"

// now reads the host wall clock. It is the benchmark's only clock read, so
// every span the benchmark reports is measured against the same source.
func now() time.Time {
	//fluxvet:allow wallclock the benchmark measures host wall time; simulated time comes from RoundEvent.SimHours
	return time.Now()
}

// since returns the wall time elapsed since t.
func since(t time.Time) time.Duration { return now().Sub(t) }
