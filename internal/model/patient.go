package model

import "fmt"

// PatientID is the pseudonymized person number that links records across
// the heterogeneous sources. The workbench shows it on the vertical axis so
// individual patients can be addressed.
type PatientID uint64

func (id PatientID) String() string { return fmt.Sprintf("P%07d", uint64(id)) }

// Sex of a patient, as registered.
type Sex uint8

const (
	SexUnknown Sex = iota
	SexFemale
	SexMale
)

func (s Sex) String() string {
	switch s {
	case SexFemale:
		return "F"
	case SexMale:
		return "M"
	case SexUnknown:
		return "?"
	default:
		return fmt.Sprintf("Sex(%d)", uint8(s))
	}
}

// Patient is the demographic record shared by all sources.
type Patient struct {
	ID PatientID
	// Birth is the date of birth. Entries dated before Birth are
	// "clearly invalid" per the paper and dropped during integration.
	Birth Time
	Sex   Sex
	// Municipality is the registered home municipality number.
	Municipality int
}

// AgeAt returns the patient's age in whole years at time t; negative if t
// precedes birth (floor semantics, so the day before birth is age -1).
func (p *Patient) AgeAt(t Time) int {
	diff := t - p.Birth
	age := diff / Year
	if diff < 0 && diff%Year != 0 {
		age--
	}
	return int(age)
}

// Validate reports structural problems with the patient record.
func (p *Patient) Validate() error {
	if p.ID == 0 {
		return fmt.Errorf("model: patient with zero ID")
	}
	if !p.Birth.Valid() {
		return fmt.Errorf("model: patient %s: invalid birth date", p.ID)
	}
	return nil
}
