package model

import "fmt"

// Kind distinguishes the two entry shapes the paper describes: events that
// "happen at a given time and have no duration" and intervals "defined by
// their start and end times".
type Kind uint8

const (
	Point Kind = iota
	Interval
)

func (k Kind) String() string {
	switch k {
	case Point:
		return "point"
	case Interval:
		return "interval"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Source identifies which of the heterogeneous registries an entry was
// aggregated from.
type Source uint8

const (
	SourceUnknown Source = iota
	// SourceGP: general practitioner and emergency primary care claims.
	SourceGP
	// SourceHospital: somatic hospital episodes (inpatient, outpatient,
	// day treatment).
	SourceHospital
	// SourceMunicipal: municipal services (home care, nursing home).
	SourceMunicipal
	// SourceSpecialist: private medical specialists with reimbursement
	// claims.
	SourceSpecialist
	// SourcePhysio: physiotherapists in primary care.
	SourcePhysio
)

var sourceNames = [...]string{
	SourceUnknown:    "unknown",
	SourceGP:         "gp",
	SourceHospital:   "hospital",
	SourceMunicipal:  "municipal",
	SourceSpecialist: "specialist",
	SourcePhysio:     "physio",
}

func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("Source(%d)", uint8(s))
}

// Sources lists all real sources (excluding SourceUnknown).
func Sources() []Source {
	return []Source{SourceGP, SourceHospital, SourceMunicipal, SourceSpecialist, SourcePhysio}
}

// Type classifies what an entry records. The workbench draws each type with
// a distinct visual encoding (Fig. 1): contacts as marks on the history bar,
// diagnoses as small rectangles, blood-pressure measurements as arrows,
// medication periods as background colorings, stays as intervals.
type Type uint8

const (
	TypeUnknown Type = iota
	// TypeContact is a single-day contact with a care provider.
	TypeContact
	// TypeDiagnosis is a coded diagnosis (ICPC-2 or ICD-10).
	TypeDiagnosis
	// TypeMeasurement is a clinical measurement (e.g. blood pressure).
	TypeMeasurement
	// TypeMedication is a medication period or prescription (ATC-coded).
	TypeMedication
	// TypeStay is an admission interval (hospital or nursing home).
	TypeStay
	// TypeService is a recurring municipal service interval (home care).
	TypeService
)

var typeNames = [...]string{
	TypeUnknown:     "unknown",
	TypeContact:     "contact",
	TypeDiagnosis:   "diagnosis",
	TypeMeasurement: "measurement",
	TypeMedication:  "medication",
	TypeStay:        "stay",
	TypeService:     "service",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Types lists all real entry types (excluding TypeUnknown).
func Types() []Type {
	return []Type{TypeContact, TypeDiagnosis, TypeMeasurement, TypeMedication, TypeStay, TypeService}
}

// Code is a reference into one of the clinical terminologies.
type Code struct {
	// System names the terminology: "ICPC2", "ICD10" or "ATC".
	System string
	// Value is the code itself, e.g. "T90", "E11.9", "C07A".
	Value string
}

// IsZero reports whether no code is attached.
func (c Code) IsZero() bool { return c.System == "" && c.Value == "" }

func (c Code) String() string {
	if c.IsZero() {
		return "-"
	}
	return c.System + ":" + c.Value
}

// Entry is one event or interval in a patient history. Entries are value
// types; collections hold them in contiguous slices so that scanning a
// 168,000-patient data set stays cache-friendly. An entry does not name
// its patient: it belongs to the history whose slice holds it.
//
// The fields are ordered by size so the four one-byte fields share the
// last word: 8+8+8+32+8+8+16+4·1 rounds to 96 bytes, with no padding
// between fields.
type Entry struct {
	// ID is unique within a collection and stable across snapshots.
	ID uint64
	// Start is when the event happened, or the interval began.
	Start Time
	// End is the interval end (exclusive); equals Start for point events.
	End Time
	// Code is the clinical code, when coded.
	Code Code
	// Value carries a numeric payload: systolic blood pressure for
	// measurements, reimbursement amount for claims.
	Value float64
	// Aux carries a secondary numeric payload (diastolic pressure).
	Aux float64
	// Text is the free-text fragment attached to the record, when any.
	// The paper extracts limited structure from such text with regexes.
	Text string
	// Kind says whether End is meaningful.
	Kind Kind
	// Source is the registry the entry was aggregated from.
	Source Source
	// Type classifies the entry.
	Type Type
	// OpenEnd marks intervals whose true end is unknown (a service still
	// running at extract time); End then holds the extract horizon. The
	// renderer draws these with an uncertainty fade, after the interval
	// metaphors of Chittaro & Combi the paper cites.
	OpenEnd bool
}

// Period returns the time extent of the entry; for point events it is the
// zero-length period at Start.
func (e *Entry) Period() Period {
	if e.Kind == Point {
		return Period{Start: e.Start, End: e.Start}
	}
	return Period{Start: e.Start, End: e.End}
}

// Duration is End-Start for intervals and 0 for points.
func (e *Entry) Duration() Time {
	if e.Kind == Point {
		return 0
	}
	return e.End - e.Start
}

// Validate reports structural problems with the entry.
func (e *Entry) Validate() error {
	if !e.Start.Valid() {
		return fmt.Errorf("model: entry %d: invalid start", e.ID)
	}
	switch e.Kind {
	case Point:
		if e.End != e.Start {
			return fmt.Errorf("model: entry %d: point event with end != start", e.ID)
		}
	case Interval:
		if !e.End.Valid() {
			return fmt.Errorf("model: entry %d: interval with invalid end", e.ID)
		}
		if e.End < e.Start {
			return fmt.Errorf("model: entry %d: interval ends before it starts", e.ID)
		}
	default:
		return fmt.Errorf("model: entry %d: unknown kind %d", e.ID, e.Kind)
	}
	return nil
}

func (e *Entry) String() string {
	if e.Kind == Point {
		return fmt.Sprintf("%s %s %s %s", e.Start, e.Source, e.Type, e.Code)
	}
	return fmt.Sprintf("%s..%s %s %s %s", e.Start, e.End, e.Source, e.Type, e.Code)
}
