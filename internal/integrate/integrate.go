// Package integrate aggregates the heterogeneous registry extracts into
// unified per-patient trajectories — the paper's "integrates multiple,
// heterogeneous clinical data sources ... in a common workbench".
//
// Responsibilities: record linkage on the person number, date
// normalization, collapsing duplicate claims, dropping entries "with a
// clearly invalid date (prior to the birth of the patient)", recovering
// structure from free text with the limited regex extraction the paper
// describes, and deriving interval entries (stays, services, medication
// periods) alongside point events.
//
// Integration runs patient by patient. One counting sort per registry
// groups record indices by person; workers claim blocks of persons and
// stage each person's six registries — in fixed registry order, records in
// record order — into a reused scratch slice, then copy it into the
// person's exactly-sized history and sort it. Entry IDs number entries
// registry by registry, as if each registry were staged whole in turn: a
// staged entry carries a provisional ID (its unit and its position in the
// unit), and one prefix sum over the units' counts then turns these into
// final IDs. The mapping is monotone, so sorting before renumbering gives
// the same order, and the output — collection, entry IDs and report — is
// byte-for-byte identical at any concurrency. Build and the incremental
// Consumer share this one pipeline.
package integrate

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pastas/internal/model"
	"pastas/internal/sources"
)

// Options tunes the integration pipeline.
type Options struct {
	// ExtractFromText enables regex recovery of blood pressures and
	// inline ICPC codes from GP notes (on by default via DefaultOptions).
	ExtractFromText bool
	// MergeOverlappingServices collapses overlapping municipal service
	// intervals of the same kind into one.
	MergeOverlappingServices bool
	// OpenIntervalEnd closes still-running service intervals (empty To
	// field). Zero means: one day past the latest date seen in the bundle.
	OpenIntervalEnd model.Time
	// Concurrency bounds how many workers stage persons at once: 0 means
	// GOMAXPROCS, 1 stages every person on one goroutine. Output is
	// identical at any setting.
	Concurrency int
}

// DefaultOptions returns the standard pipeline configuration.
func DefaultOptions() Options {
	return Options{ExtractFromText: true, MergeOverlappingServices: true}
}

// Report accounts for every record consumed and entry produced; the
// recognition survey (experiment E2) reads its error rates.
type Report struct {
	RecordsIn           int
	EntriesOut          int
	Patients            int
	DroppedPreBirth     int
	DroppedUnparsable   int
	DuplicatesCollapsed int
	MergedIntervals     int
	BPFromText          int
	CodesFromText       int
	UnknownPersons      int
}

func (r *Report) String() string {
	return fmt.Sprint("integrate: ", r.RecordsIn, " records -> ", r.EntriesOut, " entries for ", r.Patients,
		" patients (pre-birth ", r.DroppedPreBirth, ", unparsable ", r.DroppedUnparsable,
		", duplicates ", r.DuplicatesCollapsed, ", merged intervals ", r.MergedIntervals,
		", BP from text ", r.BPFromText, ", codes from text ", r.CodesFromText,
		", unknown persons ", r.UnknownPersons, ")")
}

// add accumulates a per-stager report delta.
func (r *Report) add(d Report) {
	r.DroppedPreBirth += d.DroppedPreBirth
	r.DroppedUnparsable += d.DroppedUnparsable
	r.DuplicatesCollapsed += d.DuplicatesCollapsed
	r.MergedIntervals += d.MergedIntervals
	r.BPFromText += d.BPFromText
	r.CodesFromText += d.CodesFromText
	r.UnknownPersons += d.UnknownPersons
}

// Build runs the pipeline over a bundle.
func Build(b *sources.Bundle, opts Options) (*model.Collection, *Report, error) {
	report := Report{RecordsIn: b.TotalRecords()}
	p, err := newPlan(b, 1, nil, &report)
	if err != nil {
		return nil, nil, err
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	openEnd := horizon(opts, b)
	sts := make([]*stager, workers)
	for w := range sts {
		sts[w] = &stager{opts: opts, openEnd: openEnd, perPerson: true, seenGP: make(map[gpKey]bool), seenSp: make(map[spKey]bool)}
	}
	hists := p.run(sts, 1, &report)
	// Only demographic records yield histories here: anyone else is
	// unknown to Build, so everything staged for them was dropped.
	col := model.MustCollection(slices.DeleteFunc(hists, func(h *model.History) bool { return h == nil })...)
	report.Patients = col.Len()
	return col, &report, nil
}

// The six registries, in the order that numbers entry IDs.
const (
	regGP = iota
	regPrescription
	regEpisode
	regMunicipal
	regSpecialist
	regPhysio
	numRegistries
)

// A provisional entry ID is unit<<subBits | sub: the entry's unit and its
// position among the unit's staged entries. Units are numbered registry by
// registry, one per record index — except that a person's municipal
// services, whose periods merge across records, are one unit, at the
// person's first position in the grouped index.
const subBits = 32

// plan groups a bundle's records by person. Slot s is person ids[s], in
// ascending ID order over everyone the demographics or any registry
// names; registry r's records for it are records(r, s), in record order.
// pat[s] is the slot's demographic record when isNew[s]; counts holds each
// unit's staged entries, then its first entry's offset.
type plan struct {
	b        *sources.Bundle
	ids      []uint64
	off, idx [numRegistries][]int32
	pat      []model.Patient
	isNew    []bool
	unitBase [numRegistries]int
	counts   []uint32
}

// newPlan groups b's records by person and parses its demographics. A
// person delivered twice, one known reports as integrated already, or a
// bundle whose entries could overflow the numbering from next fails
// before anything is staged.
func newPlan(b *sources.Bundle, next uint64, known func(uint64) bool, rep *Report) (*plan, error) {
	// A record stages at most three entries, an episode one more per
	// secondary ICD: below MaxInt32, every index, unit, count and offset
	// fits its int32 or uint32.
	bound := uint64(3*b.TotalRecords() + len(b.Persons))
	for i := range b.Episodes {
		bound += uint64(len(b.Episodes[i].SecondaryICD))
	}
	if bound >= math.MaxInt32 || next+bound < next {
		return nil, errors.New("integrate: bundle overflows the entry numbering")
	}
	// Number persons in first-seen order.
	number := make(map[uint64]int32, len(b.Persons))
	var first []uint64
	visit := func(id uint64) int32 {
		n, ok := number[id]
		if !ok {
			n = int32(len(first))
			number[id] = n
			first = append(first, id)
		}
		return n
	}
	persons := personsOf(b.Persons, func(r *sources.Person) uint64 { return r.ID }, visit)
	tmp := [numRegistries][]int32{
		personsOf(b.GPClaims, func(r *sources.GPClaim) uint64 { return r.Person }, visit),
		personsOf(b.Prescriptions, func(r *sources.Prescription) uint64 { return r.Person }, visit),
		personsOf(b.Episodes, func(r *sources.HospitalEpisode) uint64 { return r.Person }, visit),
		personsOf(b.Municipal, func(r *sources.MunicipalService) uint64 { return r.Person }, visit),
		personsOf(b.Specialist, func(r *sources.SpecialistClaim) uint64 { return r.Person }, visit),
		personsOf(b.Physio, func(r *sources.PhysioClaim) uint64 { return r.Person }, visit),
	}

	order := make([]int32, len(first))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(first[x], first[y]) })
	p := &plan{b: b, ids: make([]uint64, len(order))}
	slot := make([]int32, len(order)) // first-seen number → slot
	for s, n := range order {
		p.ids[s] = first[n]
		slot[n] = int32(s)
	}

	p.pat = make([]model.Patient, len(p.ids))
	p.isNew = make([]bool, len(p.ids))
	for i := range b.Persons {
		pt, err := parsePerson(&b.Persons[i])
		if err != nil {
			rep.DroppedUnparsable++
			continue
		}
		s := slot[persons[i]]
		if p.isNew[s] {
			return nil, fmt.Errorf("integrate: duplicate person %d in demographic extract", pt.ID)
		}
		if known != nil && known(uint64(pt.ID)) {
			return nil, fmt.Errorf("integrate: person %d already integrated", pt.ID)
		}
		p.pat[s], p.isNew[s] = pt, true
	}

	// One counting sort per registry.
	pos := make([]int32, len(p.ids))
	units := 0
	for r, recs := range tmp {
		off := make([]int32, len(p.ids)+1)
		for i, n := range recs {
			recs[i] = slot[n]
			off[recs[i]+1]++
		}
		for s := range p.ids {
			off[s+1] += off[s]
		}
		copy(pos, off)
		idx := make([]int32, len(recs))
		for i, s := range recs {
			idx[pos[s]] = int32(i)
			pos[s]++
		}
		p.off[r], p.idx[r] = off, idx
		p.unitBase[r], units = units, units+len(recs)
	}
	p.counts = make([]uint32, units)
	return p, nil
}

// personsOf numbers the person of every record.
func personsOf[T any](recs []T, person func(*T) uint64, visit func(uint64) int32) []int32 {
	out := make([]int32, len(recs))
	for i := range recs {
		out[i] = visit(person(&recs[i]))
	}
	return out
}

// records returns registry r's record indices for slot s.
func (p *plan) records(r, s int) []int32 { return p.idx[r][p.off[r][s]:p.off[r][s+1]] }

// run stages every slot, one goroutine per stager claiming blocks of
// slots, then renumbers the provisional IDs from next. hists[s] is the
// sorted history of a new patient, the staged entries (in staging order,
// under a bare patient record) of anyone else, or nil when there is
// nothing.
func (p *plan) run(sts []*stager, next uint64, rep *Report) []*model.History {
	for _, st := range sts {
		st.counts, st.rep, st.texts = p.counts, Report{}, make(map[string]string)
	}
	hists := make([]*model.History, len(p.ids))
	parallel(len(sts), len(hists), func(w, s int) { hists[s] = sts[w].stagePerson(p, s) })
	for _, st := range sts {
		rep.add(st.rep)
	}

	var total uint32
	for u, n := range p.counts {
		p.counts[u] = total
		total += n
	}
	parallel(len(sts), len(hists), func(_, s int) {
		if h := hists[s]; h != nil {
			for i := range h.Entries {
				e := &h.Entries[i]
				e.ID = next + uint64(p.counts[e.ID>>subBits]) + e.ID&(1<<subBits-1)
			}
		}
	})
	rep.EntriesOut += int(total)
	return hists
}

// parallel calls fn(w, i) for every i in [0, n) on workers goroutines,
// worker w claiming blocks of indices.
func parallel(workers, n int, fn func(w, i int)) {
	const block = 64
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := int(claimed.Add(block)) - block; lo < n; lo = int(claimed.Add(block)) - block {
				for i := lo; i < min(lo+block, n); i++ {
					fn(w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// sexOf maps the demographic extract's sex codes; any other is unknown.
var sexOf = map[string]model.Sex{"F": model.SexFemale, "M": model.SexMale}

// parsePerson parses one demographic record; the single place the person
// → patient mapping rules live.
func parsePerson(p *sources.Person) (model.Patient, error) {
	birth, err := model.ParseDate(p.BirthDate)
	return model.Patient{ID: model.PatientID(p.ID), Birth: birth, Sex: sexOf[p.Sex], Municipality: p.Municipality}, err
}

// horizon is the end given to still-running services: the option, or one
// day past the latest date in the bundle.
func horizon(opts Options, b *sources.Bundle) model.Time {
	if end := opts.OpenIntervalEnd; end.Valid() && end != 0 {
		return end
	}
	return latestDate(b).AddDays(1)
}

// stager stages one person at a time; each worker owns one. It carries
// the linkage state the registry rules read — birth dates integrated by
// earlier batches and the resolve fallback for patients integrated before
// a Consumer existed (cached into birthOf on first hit) — the dedup
// fingerprints, and the scratch a person's entries are staged into.
type stager struct {
	opts    Options
	openEnd model.Time
	birthOf map[uint64]model.Time
	resolve func(uint64) (model.Time, bool)
	seenGP  map[gpKey]bool
	seenSp  map[spKey]bool
	// perPerson forgets the fingerprints after each person (their key holds
	// it); a Consumer keeps them so a claim re-delivered later collapses.
	perPerson bool

	counts    []uint32 // the plan's, while it runs
	birth     model.Time
	known     bool
	unit, sub uint64
	scratch   []model.Entry
	order     []int32
	periods   []openPeriod
	rep       Report
	texts     map[string]string // one copy of each text staged this call
}

// gpKey and spKey fingerprint a claim for duplicate collapsing.
type gpKey struct {
	person           uint64
	date, icpc, text string
	emergency        bool
}

type spKey struct {
	person               uint64
	date, icd, specialty string
}

// stagePerson stages slot s — its six registries in fixed order, each
// registry's records in record order — and returns its output (see run).
func (st *stager) stagePerson(p *plan, s int) *model.History {
	b := p.b
	st.scratch = st.scratch[:0]
	st.birth, st.known = p.pat[s].Birth, p.isNew[s]
	if !st.known {
		st.birth, st.known = st.linked(p.ids[s])
	}
	stageEach(st, p, regGP, s, b.GPClaims, (*stager).gpClaim)
	stageEach(st, p, regPrescription, s, b.Prescriptions, (*stager).prescription)
	stageEach(st, p, regEpisode, s, b.Episodes, (*stager).episode)
	st.unit, st.sub = uint64(p.unitBase[regMunicipal]+int(p.off[regMunicipal][s])), 0
	st.municipal(b.Municipal, p.records(regMunicipal, s))
	stageEach(st, p, regSpecialist, s, b.Specialist, (*stager).specialist)
	stageEach(st, p, regPhysio, s, b.Physio, (*stager).physio)
	if st.perPerson {
		clear(st.seenGP)
		clear(st.seenSp)
	}

	var es []model.Entry
	if len(st.scratch) > 0 {
		es = make([]model.Entry, len(st.scratch))
		copy(es, st.scratch)
	}
	switch {
	case p.isNew[s]:
		h := model.RestoreHistory(p.pat[s], es)
		h.Sort()
		return h
	case es != nil:
		return &model.History{Patient: model.Patient{ID: model.PatientID(p.ids[s])}, Entries: es}
	}
	return nil
}

// stageEach stages registry r's records for slot s, each its own unit.
func stageEach[T any](st *stager, p *plan, r, s int, recs []T, stage func(*stager, *T)) {
	for _, i := range p.records(r, s) {
		st.unit, st.sub = uint64(p.unitBase[r]+int(i)), 0
		stage(st, &recs[i])
	}
}

// linked returns the birth date of a person integrated before this
// bundle: by an earlier batch, or before the Consumer existed.
func (st *stager) linked(id uint64) (model.Time, bool) {
	birth, ok := st.birthOf[id]
	if !ok && st.resolve != nil {
		if birth, ok = st.resolve(id); ok {
			st.birthOf[id] = birth
		}
	}
	return birth, ok
}

// admit validates linkage and the pre-birth rule.
func (st *stager) admit(t model.Time) bool {
	if !st.known {
		st.rep.UnknownPersons++
		return false
	}
	if t < st.birth {
		st.rep.DroppedPreBirth++
		return false
	}
	return true
}

// text returns the stager's one copy of s for this call, so the entries
// of every record with the same text share one string rather than pinning
// a string per record.
func (st *stager) text(s string) string {
	if t, ok := st.texts[s]; ok {
		return t
	}
	st.texts[s] = s
	return s
}

// emit stages e under its provisional ID and counts it for its unit.
func (st *stager) emit(e model.Entry) {
	e.ID = st.unit<<subBits | st.sub
	st.sub++
	st.counts[st.unit] = uint32(st.sub)
	st.scratch = append(st.scratch, e)
}

// date parses a record's date, counting the record unparsable when it
// does not parse.
func (st *stager) date(s string) (model.Time, bool) {
	t, err := model.ParseDate(s)
	if err != nil {
		st.rep.DroppedUnparsable++
	}
	return t, err == nil
}

// point is a point event at t.
func point(t model.Time, src model.Source, typ model.Type, code model.Code) model.Entry {
	return model.Entry{Kind: model.Point, Start: t, End: t, Source: src, Type: typ, Code: code}
}

func (st *stager) gpClaim(cl *sources.GPClaim) {
	t, ok := st.date(cl.Date)
	if !ok {
		return
	}
	key := gpKey{cl.Person, cl.Date, cl.ICPC, cl.Text, cl.Emergency}
	if st.seenGP[key] {
		st.rep.DuplicatesCollapsed++
		return
	}
	st.seenGP[key] = true
	if !st.admit(t) {
		return
	}
	contact := point(t, model.SourceGP, model.TypeContact, model.Code{})
	contact.Value, contact.Text = cl.Amount, st.text(cl.Text)
	st.emit(contact)

	code := cl.ICPC
	if code == "" && st.opts.ExtractFromText {
		if m := sources.ExtractICPCMention(cl.Text); m != "" {
			code = m
			st.rep.CodesFromText++
		}
	}
	if code != "" {
		st.emit(point(t, model.SourceGP, model.TypeDiagnosis, model.Code{System: "ICPC2", Value: code}))
	}

	sys, dia := cl.Systolic, cl.Diastolic
	if sys == 0 && st.opts.ExtractFromText {
		if s, d, ok := sources.ExtractBP(cl.Text); ok {
			sys, dia = s, d
			st.rep.BPFromText++
		}
	}
	if sys > 0 {
		bp := point(t, model.SourceGP, model.TypeMeasurement, model.Code{})
		bp.Value, bp.Aux = float64(sys), float64(dia)
		st.emit(bp)
	}
}

func (st *stager) prescription(rx *sources.Prescription) {
	t, ok := st.date(rx.Date)
	if !ok || !st.admit(t) {
		return
	}
	med := point(t, model.SourceGP, model.TypeMedication, model.Code{System: "ATC", Value: rx.ATC})
	med.Kind, med.End = model.Interval, t.AddDays(max(rx.DurationDays, 1))
	st.emit(med)
}

func (st *stager) episode(e *sources.HospitalEpisode) {
	start, ok := st.date(e.Admitted)
	if !ok || !st.admit(start) {
		return
	}
	icd := func(v string) model.Code { return model.Code{System: "ICD10", Value: v} }
	switch e.Mode {
	case sources.ModeInpatient, sources.ModeDay:
		stay := point(start, model.SourceHospital, model.TypeStay, icd(e.MainICD))
		stay.Kind, stay.End = model.Interval, start.AddDays(1)
		if e.Discharged != "" {
			d, ok := st.date(e.Discharged)
			if !ok {
				return
			}
			if d > start {
				stay.End = d
			}
		}
		st.emit(stay)
	case sources.ModeOutpatient:
		st.emit(point(start, model.SourceHospital, model.TypeContact, model.Code{}))
	default:
		st.rep.DroppedUnparsable++
		return
	}
	if e.MainICD != "" {
		st.emit(point(start, model.SourceHospital, model.TypeDiagnosis, icd(e.MainICD)))
	}
	for _, sec := range e.SecondaryICD {
		st.emit(point(start, model.SourceHospital, model.TypeDiagnosis, icd(sec)))
	}
}

// municipal stages one person's services, one service at a time in
// service order, so overlapping decisions of a service can merge.
func (st *stager) municipal(recs []sources.MunicipalService, idx []int32) {
	order := append(st.order[:0], idx...)
	slices.SortStableFunc(order, func(x, y int32) int { return strings.Compare(recs[x].Service, recs[y].Service) })
	st.order = order
	for lo := 0; lo < len(order); {
		service := recs[order[lo]].Service
		periods := st.periods[:0]
		for ; lo < len(order) && recs[order[lo]].Service == service; lo++ {
			s := &recs[order[lo]]
			from, ok := st.date(s.From)
			to, open := st.openEnd, s.To == ""
			if ok && !open {
				to, ok = st.date(s.To)
			}
			if !ok {
				continue
			}
			if to <= from {
				to = from.AddDays(1)
			}
			periods = append(periods, openPeriod{Period: model.Period{Start: from, End: to}, open: open})
		}
		st.periods = periods
		if st.opts.MergeOverlappingServices {
			merged := mergeOpenPeriods(periods)
			st.rep.MergedIntervals += len(periods) - len(merged)
			periods = merged
		}
		typ := model.TypeService
		if service == sources.ServiceNursing {
			typ = model.TypeStay
		}
		for _, p := range periods {
			if st.admit(p.Start) {
				st.emit(model.Entry{Kind: model.Interval, Start: p.Start, End: p.End,
					Source: model.SourceMunicipal, Type: typ, Text: st.text(service), OpenEnd: p.open})
			}
		}
	}
}

// openPeriod is a period whose end may be the extract horizon rather than
// a recorded date.
type openPeriod struct {
	model.Period
	open bool
}

// mergeOpenPeriods merges overlapping or touching periods, propagating the
// open-end flag when the merged tail came from an open record. The result
// does not depend on the input order: a merged period ends at its
// members' latest end, open when any member ending there is.
func mergeOpenPeriods(ps []openPeriod) []openPeriod {
	if len(ps) <= 1 {
		return ps
	}
	slices.SortFunc(ps, func(a, b openPeriod) int { return cmp.Compare(a.Start, b.Start) })
	out := ps[:1]
	for _, p := range ps[1:] {
		last := &out[len(out)-1]
		if p.Start <= last.End {
			if p.End > last.End {
				last.End = p.End
				last.open = p.open
			} else if p.End == last.End && p.open {
				last.open = true
			}
			continue
		}
		out = append(out, p)
	}
	return out
}

func (st *stager) specialist(cl *sources.SpecialistClaim) {
	t, ok := st.date(cl.Date)
	if !ok {
		return
	}
	key := spKey{cl.Person, cl.Date, cl.ICD, cl.Specialty}
	if st.seenSp[key] {
		st.rep.DuplicatesCollapsed++
		return
	}
	st.seenSp[key] = true
	if !st.admit(t) {
		return
	}
	contact := point(t, model.SourceSpecialist, model.TypeContact, model.Code{})
	contact.Text = st.text(cl.Specialty)
	st.emit(contact)
	if cl.ICD != "" {
		st.emit(point(t, model.SourceSpecialist, model.TypeDiagnosis, model.Code{System: "ICD10", Value: cl.ICD}))
	}
}

func (st *stager) physio(cl *sources.PhysioClaim) {
	t, ok := st.date(cl.Date)
	if !ok || !st.admit(t) {
		return
	}
	contact := point(t, model.SourcePhysio, model.TypeContact, model.Code{})
	contact.Value = float64(cl.Sessions)
	st.emit(contact)
	if cl.ICPC != "" {
		st.emit(point(t, model.SourcePhysio, model.TypeDiagnosis, model.Code{System: "ICPC2", Value: cl.ICPC}))
	}
}

// latestDate scans the bundle for the latest parsable date; used to close
// still-open service intervals. A parsable date is YYYY-MM-DD, so string
// order is date order and only a string past the latest yet is parsed.
func latestDate(b *sources.Bundle) model.Time {
	latest, last := model.Time(0), ""
	consider := func(s string) {
		if s > last {
			if t, err := model.ParseDate(s); err == nil {
				latest, last = max(latest, t), s
			}
		}
	}
	for i := range b.GPClaims {
		consider(b.GPClaims[i].Date)
	}
	for i := range b.Prescriptions {
		consider(b.Prescriptions[i].Date)
	}
	for i := range b.Episodes {
		consider(b.Episodes[i].Admitted)
		consider(b.Episodes[i].Discharged)
	}
	for i := range b.Municipal {
		consider(b.Municipal[i].From)
		consider(b.Municipal[i].To)
	}
	for i := range b.Specialist {
		consider(b.Specialist[i].Date)
	}
	for i := range b.Physio {
		consider(b.Physio[i].Date)
	}
	return latest
}
