package stats

import (
	"pastas/internal/model"
	"pastas/internal/store"
)

// Utilization is the one tally behind the indicators and the cohort
// profile: per history the demographic head, per in-window cell one
// increment of a (type, source) count matrix and of the matching
// clamped-duration matrix. IndicatorCounts and CohortProfile are read off
// the matrices, so the two cannot disagree on what is in the window or how
// old a patient is. It is also the mergeable partial a shard returns for
// both: integer sums over disjoint patients, exact in any grouping. The
// zero value is ready.
type Utilization struct {
	Patients, Females, Males int
	AgeYears                 int64
	AgeBands                 [profileAgeBands]int
	Emergency                int // in-window cells flagged emergency
	Count                    [utilSlots * utilSlots]int
	Ticks                    [utilSlots * utilSlots]int64
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
// the indicators and the profile always shared: an interval counts when
// its clamped period is non-empty, a point when the window contains it.
func (u *Utilization) Add(r store.Row, window model.Period) {
	u.Patients++
	switch r.Sex {
	case model.SexFemale:
		u.Females++
	case model.SexMale:
		u.Males++
	}
	p := model.Patient{Birth: model.Time(r.Birth)}
	age := max(p.AgeAt(window.Start), 0)
	u.AgeYears += int64(age)
	u.AgeBands[min(age/15, profileAgeBands-1)]++

	ws, we := int64(window.Start), int64(window.End)
	for i := range r.Cells {
		c := &r.Cells[i]
		start, end := max(c.Start, ws), min(c.End, we)
		n := b2i(c.Kind == model.Interval)&b2i(start < end) |
			b2i(c.Kind == model.Point)&b2i(c.Start >= ws)&b2i(c.Start < we)
		k := slot(uint8(c.Type), profileTypes)*utilSlots + slot(uint8(c.Source), profileSources)
		u.Count[k] += n
		u.Ticks[k] += (end - start) * int64(n) // an in-window point spans 0
		u.Emergency += n & int(c.Flags&store.CellEmergency)
	}
}

// Merge folds another partial into the receiver.
func (u *Utilization) Merge(o *Utilization) {
	u.Patients += o.Patients
	u.Females += o.Females
	u.Males += o.Males
	u.AgeYears += o.AgeYears
	u.Emergency += o.Emergency
	for i := range u.AgeBands {
		u.AgeBands[i] += o.AgeBands[i]
	}
	for i := range u.Count {
		u.Count[i] += o.Count[i]
		u.Ticks[i] += o.Ticks[i]
	}
}

// Tally runs the kernel over a whole collection sequentially, each history
// framed on its own: the reference the sharded aggregation is
// parity-tested against, and what ComputeIndicators and
// ComputeCohortProfile read.
func Tally(col *model.Collection, window model.Period) *Utilization {
	u := new(Utilization)
	for _, h := range col.Histories() {
		row, _ := store.FrameHistory(h)
		u.Add(row, window)
	}
	return u
}

// HistoryCount is the number of histories tallied — the bound a transport
// checks a shard's partial against (engine.Partial).
func (u *Utilization) HistoryCount() int { return u.Patients }

// at is the matrix index of a declared type and source.
func at(t model.Type, s model.Source) int { return int(t)*utilSlots + int(s) }

// Indicators reads the indicator tallies off the matrices.
func (u *Utilization) Indicators() IndicatorCounts {
	c := IndicatorCounts{
		Patients: u.Patients, Females: u.Females, AgeYears: u.AgeYears,
		GPContacts:         u.Count[at(model.TypeContact, model.SourceGP)],
		EmergencyGP:        u.Emergency,
		OutpatientVisits:   u.Count[at(model.TypeContact, model.SourceHospital)],
		SpecialistContacts: u.Count[at(model.TypeContact, model.SourceSpecialist)],
		PhysioContacts:     u.Count[at(model.TypeContact, model.SourcePhysio)],
		Admissions:         u.Count[at(model.TypeStay, model.SourceHospital)],
		AdmissionTicks:     u.Ticks[at(model.TypeStay, model.SourceHospital)],
		NursingTicks:       u.Ticks[at(model.TypeStay, model.SourceMunicipal)],
	}
	for s := 0; s < utilSlots; s++ { // whatever the source
		c.HomeCareTicks += u.Ticks[int(model.TypeService)*utilSlots+s]
		c.Prescriptions += u.Count[int(model.TypeMedication)*utilSlots+s]
	}
	return c
}

// Profile reads the dimension breakdown off the count matrix.
func (u *Utilization) Profile() CohortProfile {
	p := CohortProfile{Patients: u.Patients, Females: u.Females, Males: u.Males,
		AgeYears: u.AgeYears, AgeBands: u.AgeBands}
	for t := 0; t < utilSlots; t++ {
		for s := 0; s < utilSlots; s++ {
			n := u.Count[t*utilSlots+s]
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
