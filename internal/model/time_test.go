package model

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeRoundTrip(t *testing.T) {
	cases := []time.Time{
		time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2010, 6, 15, 13, 45, 0, 0, time.UTC),
		time.Date(1932, 2, 29, 0, 0, 0, 0, time.UTC),
		time.Date(2099, 12, 31, 23, 59, 0, 0, time.UTC),
	}
	for _, tt := range cases {
		got := FromTime(tt).AsTime()
		if !got.Equal(tt) {
			t.Errorf("round trip %v -> %v", tt, got)
		}
	}
}

func TestTimeRoundTripProperty(t *testing.T) {
	f := func(mins int32) bool {
		v := Time(mins)
		return FromTime(v.AsTime()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDate(t *testing.T) {
	d := Date(2010, time.March, 5)
	if d%Day != 0 {
		t.Fatalf("Date not day-aligned: %d", d)
	}
	if got := d.String(); got != "2010-03-05" {
		t.Errorf("String = %q", got)
	}
}

func TestDayFloor(t *testing.T) {
	d := Date(2010, time.March, 5)
	if got := (d + 13*Hour + 7*Minute).DayFloor(); got != d {
		t.Errorf("DayFloor = %v, want %v", got, d)
	}
	if got := d.DayFloor(); got != d {
		t.Errorf("DayFloor of aligned = %v, want %v", got, d)
	}
	// Before the epoch.
	neg := Date(1999, time.December, 31)
	if got := (neg + 5*Hour).DayFloor(); got != neg {
		t.Errorf("negative DayFloor = %v, want %v", got, neg)
	}
}

func TestDayFloorProperty(t *testing.T) {
	f := func(mins int32) bool {
		v := Time(mins)
		fl := v.DayFloor()
		return fl <= v && v-fl < Day && fl%Day == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDate(t *testing.T) {
	d, err := ParseDate("2012-11-30")
	if err != nil {
		t.Fatal(err)
	}
	if d != Date(2012, time.November, 30) {
		t.Errorf("ParseDate = %v", d)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("want error for malformed date")
	}
}

func TestPeriod(t *testing.T) {
	p := Period{Start: 0, End: 100}
	if !p.Contains(0) || p.Contains(100) || !p.Contains(99) {
		t.Error("Contains half-open semantics broken")
	}
	if p.Duration() != 100 {
		t.Errorf("Duration = %d", p.Duration())
	}
	if !p.Overlaps(Period{Start: 99, End: 200}) {
		t.Error("expected overlap")
	}
	if p.Overlaps(Period{Start: 100, End: 200}) {
		t.Error("touching periods must not overlap")
	}
	got := Period{Start: -50, End: 500}.Clamp(p)
	if got != p {
		t.Errorf("Clamp = %v", got)
	}
	if !(Period{Start: 10, End: 10}).Empty() {
		t.Error("zero-length period should be empty")
	}
	if (Period{Start: 20, End: 10}).Duration() != 0 {
		t.Error("inverted period duration should be 0")
	}
}

func TestPeriodOverlapSymmetry(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		p := Period{Start: Time(min64(a1, a2)), End: Time(max64(a1, a2))}
		q := Period{Start: Time(min64(b1, b2)), End: Time(max64(b1, b2))}
		return p.Overlaps(q) == q.Overlaps(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min64(a, b int16) int64 {
	if a < b {
		return int64(a)
	}
	return int64(b)
}

func max64(a, b int16) int64 {
	if a > b {
		return int64(a)
	}
	return int64(b)
}

func TestNoTime(t *testing.T) {
	if NoTime.Valid() {
		t.Error("NoTime must not be valid")
	}
	if NoTime.String() != "-" {
		t.Errorf("NoTime string = %q", NoTime.String())
	}
	if !Time(0).Valid() {
		t.Error("epoch must be valid")
	}
}
