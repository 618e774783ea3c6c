// Package model defines the core data model of the workbench: patients,
// point and interval entries, per-patient histories and collections of
// histories.
//
// The paper pre-loads "all content to be visualized or queried ... into a
// data structure of Java objects" whose entries "are either intervals,
// defined by their start and end times, or events that happen at a given
// time and have no duration". This package is that structure, in Go.
package model

import (
	"fmt"
	"time"
)

// Time is a compact timestamp: minutes since 2000-01-01T00:00Z.
//
// Registry data is date-resolution for most sources and minute-resolution
// for admissions; minutes keep both exact while an int64 keeps collections
// of hundreds of thousands of histories cheap to hold and sort.
type Time int64

// Epoch is the zero Time as a time.Time.
var Epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Common durations expressed in Time units (minutes).
const (
	Minute Time = 1
	Hour   Time = 60 * Minute
	Day    Time = 24 * Hour
	Week   Time = 7 * Day
	// Month is a fixed 30-day visualization month. The paper's aligned
	// axis is labeled in "number of months before and after the
	// alignment point"; a fixed month keeps those labels linear.
	Month Time = 30 * Day
	Year  Time = 365 * Day
)

// NoTime marks an absent timestamp (e.g. unknown end of an open interval).
const NoTime Time = -1 << 62

// FromTime converts a time.Time to Time, flooring to whole minutes. It uses
// Unix-second arithmetic rather than time.Time.Sub, whose time.Duration
// result saturates roughly 292 years from the epoch.
func FromTime(t time.Time) Time {
	secs := t.Unix() - epochUnix
	mins := secs / 60
	if secs < 0 && secs%60 != 0 {
		mins--
	}
	return Time(mins)
}

// Date builds a day-resolution Time from a calendar date.
func Date(year int, month time.Month, day int) Time {
	return FromTime(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// AsTime converts back to a time.Time in UTC. It goes through Unix seconds
// rather than time.Duration so that times centuries away from the epoch do
// not overflow Duration's nanosecond range.
func (t Time) AsTime() time.Time {
	return time.Unix(epochUnix+int64(t)*60, 0).UTC()
}

var epochUnix = Epoch.Unix()

// DayFloor truncates to the start of the day.
func (t Time) DayFloor() Time {
	if t >= 0 {
		return t - t%Day
	}
	// Round toward negative infinity so days before the epoch align too.
	r := t % Day
	if r == 0 {
		return t
	}
	return t - r - Day
}

// AddDays returns the time n whole days later (or earlier if negative).
func (t Time) AddDays(n int) Time { return t + Time(n)*Day }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Valid reports whether t carries a real timestamp.
func (t Time) Valid() bool { return t != NoTime }

// String renders day-resolution times as dates and finer times as RFC 3339;
// a time beyond AsTime's range renders as Time(<minutes>).
func (t Time) String() string {
	if t == NoTime {
		return "-"
	}
	tt := t.AsTime()
	if FromTime(tt) != t {
		// The minutes wrapped: a calendar rendering would alias an
		// in-range time, and plan keys are renderings.
		return fmt.Sprintf("Time(%d)", int64(t))
	}
	if t%Day == 0 {
		return tt.Format("2006-01-02")
	}
	return tt.Format("2006-01-02T15:04")
}

// ParseDate parses a YYYY-MM-DD registry date.
func ParseDate(s string) (Time, error) {
	tt, err := time.Parse("2006-01-02", s)
	if err != nil {
		return NoTime, fmt.Errorf("model: parse date %q: %w", s, err)
	}
	return FromTime(tt), nil
}

// Period is a half-open time range [Start, End).
type Period struct {
	Start Time
	End   Time
}

// Contains reports whether t falls inside the period.
func (p Period) Contains(t Time) bool { return t >= p.Start && t < p.End }

// Overlaps reports whether two periods share any time.
func (p Period) Overlaps(q Period) bool { return p.Start < q.End && q.Start < p.End }

// Duration is the length of the period in minutes; 0 if inverted.
func (p Period) Duration() Time {
	if p.End <= p.Start {
		return 0
	}
	return p.End - p.Start
}

// Clamp intersects the period with bounds.
func (p Period) Clamp(bounds Period) Period {
	if p.Start < bounds.Start {
		p.Start = bounds.Start
	}
	if p.End > bounds.End {
		p.End = bounds.End
	}
	return p
}

// Empty reports whether the period covers no time.
func (p Period) Empty() bool { return p.End <= p.Start }

func (p Period) String() string {
	return fmt.Sprintf("[%s, %s)", p.Start, p.End)
}
