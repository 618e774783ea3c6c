package integrate

// Incremental integration. Build is a batch pipeline: one bundle in, one
// collection out. A live workbench instead receives follow-on extracts —
// new patients plus new events for patients it already holds — and must
// fold them in under exactly the rules Build enforces: linkage on the
// person number, the pre-birth drop, duplicate-claim collapsing, the
// interval derivations. Consumer is that re-cast: it keeps the linkage
// state (birth dates, dedup fingerprints, the next entry ID) across
// calls, and each Consume turns one bundle into a Batch of new histories
// and per-patient entry appends that a mutable store can apply.
//
// Consume runs Build's patient-major pipeline with one stager that persists
// across batches (its dedup fingerprints and birth-date cache), so one
// Consume on an empty consumer yields exactly Build's histories, entry IDs
// and report, and the same bundles in the same order give the same batches.

import (
	"pastas/internal/model"
	"pastas/internal/sources"
)

// Update is the increment for one already-integrated patient: the entries
// a consumed bundle adds to its history. Entries are in staging order,
// not chronological order; the applier is expected to merge-and-sort.
type Update struct {
	ID      model.PatientID
	Entries []model.Entry
}

// Batch is the integrated form of one consumed bundle.
type Batch struct {
	// NewPatients are the histories of persons first seen in this bundle,
	// sorted by patient ID ascending, each already sorted chronologically.
	NewPatients []*model.History
	// Updates are the appends for previously-known patients, sorted by
	// patient ID ascending.
	Updates []Update
	// Report accounts for this bundle alone.
	Report Report
}

// Empty reports whether the batch carries nothing to apply.
func (b *Batch) Empty() bool { return len(b.NewPatients) == 0 && len(b.Updates) == 0 }

// Consumer integrates a stream of bundles incrementally.
type Consumer struct {
	st     *stager
	nextID uint64
	total  Report
}

// NewConsumer returns a consumer whose linkage state starts from an
// existing population: resolve answers the birth date of any patient
// integrated before this consumer existed (nil when starting empty), and
// nextEntryID seeds ID assignment — one past the highest entry ID already
// in use, or 1 on an empty store. Options follow Build's semantics;
// OpenIntervalEnd of zero closes open intervals at one day past the
// latest date of each consumed bundle (so the horizon moves with the
// feed — pin it explicitly when batch/incremental runs must agree).
func NewConsumer(opts Options, resolve func(uint64) (model.Time, bool), nextEntryID uint64) *Consumer {
	if nextEntryID == 0 {
		nextEntryID = 1
	}
	st := &stager{opts: opts, birthOf: make(map[uint64]model.Time), resolve: resolve,
		seenGP: make(map[gpKey]bool), seenSp: make(map[spKey]bool)}
	return &Consumer{st: st, nextID: nextEntryID}
}

// TotalReport returns the accumulated report over every consumed bundle.
func (c *Consumer) TotalReport() Report { return c.total }

// Consume integrates one bundle. A person record for an already-known
// patient is a linkage conflict and fails the whole bundle (nothing is
// recorded); event records for unknown persons are counted and dropped,
// exactly as in Build.
func (c *Consumer) Consume(b *sources.Bundle) (*Batch, error) {
	rep := Report{RecordsIn: b.TotalRecords()}
	known := func(id uint64) bool { _, ok := c.st.linked(id); return ok }
	p, err := newPlan(b, c.nextID, known, &rep)
	if err != nil {
		return nil, err
	}
	c.st.openEnd = horizon(c.st.opts, b)
	hists := p.run([]*stager{c.st}, c.nextID, &rep)

	out := &Batch{}
	for s, h := range hists {
		switch {
		case h == nil:
		case p.isNew[s]:
			c.st.birthOf[p.ids[s]] = h.Patient.Birth
			out.NewPatients = append(out.NewPatients, h)
		default:
			out.Updates = append(out.Updates, Update{ID: h.Patient.ID, Entries: h.Entries})
		}
	}
	rep.Patients = len(out.NewPatients)
	out.Report = rep
	c.nextID += uint64(rep.EntriesOut)

	c.total.RecordsIn += rep.RecordsIn
	c.total.EntriesOut += rep.EntriesOut
	c.total.Patients += rep.Patients
	c.total.add(rep)
	return out, nil
}
