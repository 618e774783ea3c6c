package stats

import (
	"pastas/internal/model"
	"pastas/internal/store"
)

// Utilization is the one tally behind the indicators and the cohort
// profile: per history the demographic head, per in-window cell one
// increment of a (type, source) count matrix and of the matching
// clamped-duration matrix. IndicatorCounts and CohortProfile are read off
// the matrices at the end of a call, so the two kinds cannot disagree on
// what is in the window or how old a patient is. The zero value is ready.
type Utilization struct {
	patients, females, males int
	ageYears                 int64
	ageBands                 [profileAgeBands]int
	emergency                int
	count                    [utilSlots * utilSlots]int
	ticks                    [utilSlots * utilSlots]int64
}

// utilSlots is the matrix side: every model.Type and model.Source has its
// own slot and any other byte the wire could carry shares the last one —
// counted as an entry, dropped from the dimension it is out of range in.
const utilSlots = 8

// slot is the matrix row or column of a type or source byte.
func slot(v uint8, valid int) int {
	if int(v) < valid {
		return int(v)
	}
	return utilSlots - 1
}

// b2i lets the cell loop add 0 or 1 instead of branching on a test the
// window makes a coin toss (the compiler emits a flag set, not a jump).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Add tallies one history over the window. The in-window test is the one
// both kinds always shared: an interval counts when its clamped period is
// non-empty, a point when the window contains it.
func (u *Utilization) Add(r store.Row, window model.Period) {
	u.patients++
	switch r.Sex {
	case model.SexFemale:
		u.females++
	case model.SexMale:
		u.males++
	}
	p := model.Patient{Birth: model.Time(r.Birth)}
	age := max(p.AgeAt(window.Start), 0)
	u.ageYears += int64(age)
	u.ageBands[min(age/15, profileAgeBands-1)]++

	ws, we := int64(window.Start), int64(window.End)
	for i := range r.Cells {
		c := &r.Cells[i]
		start, end := max(c.Start, ws), min(c.End, we)
		n := b2i(c.Kind == model.Interval)&b2i(start < end) |
			b2i(c.Kind == model.Point)&b2i(c.Start >= ws)&b2i(c.Start < we)
		k := slot(uint8(c.Type), profileTypes)*utilSlots + slot(uint8(c.Source), profileSources)
		u.count[k] += n
		u.ticks[k] += (end - start) * int64(n) // an in-window point spans 0
		u.emergency += n & int(c.Flags&store.CellEmergency)
	}
}

// at is the matrix index of a declared type and source.
func at(t model.Type, s model.Source) int { return int(t)*utilSlots + int(s) }

// Indicators reads the indicator tallies off the matrices.
func (u *Utilization) Indicators() IndicatorCounts {
	c := IndicatorCounts{
		Patients: u.patients, Females: u.females, AgeYears: u.ageYears,
		GPContacts:         u.count[at(model.TypeContact, model.SourceGP)],
		EmergencyGP:        u.emergency,
		OutpatientVisits:   u.count[at(model.TypeContact, model.SourceHospital)],
		SpecialistContacts: u.count[at(model.TypeContact, model.SourceSpecialist)],
		PhysioContacts:     u.count[at(model.TypeContact, model.SourcePhysio)],
		Admissions:         u.count[at(model.TypeStay, model.SourceHospital)],
		AdmissionTicks:     u.ticks[at(model.TypeStay, model.SourceHospital)],
		NursingTicks:       u.ticks[at(model.TypeStay, model.SourceMunicipal)],
	}
	for s := 0; s < utilSlots; s++ { // whatever the source
		c.HomeCareTicks += u.ticks[int(model.TypeService)*utilSlots+s]
		c.Prescriptions += u.count[int(model.TypeMedication)*utilSlots+s]
	}
	return c
}

// Profile reads the dimension breakdown off the count matrix.
func (u *Utilization) Profile() CohortProfile {
	p := CohortProfile{Patients: u.patients, Females: u.females, Males: u.males,
		AgeYears: u.ageYears, AgeBands: u.ageBands}
	for t := 0; t < utilSlots; t++ {
		for s := 0; s < utilSlots; s++ {
			n := u.count[t*utilSlots+s]
			p.Entries += n
			if t < profileTypes {
				p.ByType[t] += n
			}
			if s < profileSources {
				p.BySource[s] += n
			}
		}
	}
	return p
}
