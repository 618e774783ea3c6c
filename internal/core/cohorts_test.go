package core

import (
	"bytes"
	"testing"

	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/synth"
)

// TestCohortSaveReopenAdoption: cohorts saved into a snapshot are
// re-adopted on Open — same names, same cardinalities, and the adopted
// cohorts seed refinements in the fresh engine exactly as the originals
// did.
func TestCohortSaveReopenAdoption(t *testing.T) {
	cfg := synth.DefaultConfig(150)
	window := cfg.Window()
	wb := wbAtShards(t, synth.Generate(cfg), integrate.DefaultOptions(), window, 4)

	parent := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
	narrow := query.And{parent, query.SexIs(model.SexFemale)}
	if _, err := wb.SaveCohort("diag", parent); err != nil {
		t.Fatal(err)
	}
	if _, ref, err := wb.RefineCohort("women", narrow); err != nil {
		t.Fatal(err)
	} else if ref.Mode != "narrow" {
		t.Fatalf("refine mode %q, want narrow", ref.Mode)
	}
	wantBits, _, err := wb.Engine.CohortBits("women")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	info, err := wb.Save(&buf, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cohorts != 2 {
		t.Fatalf("snapshot reports %d cohorts, want 2", info.Cohorts)
	}

	re, err := Open(bytes.NewReader(buf.Bytes()), window)
	if err != nil {
		t.Fatal(err)
	}
	cs := re.Cohorts()
	if len(cs) != 2 {
		t.Fatalf("reopened workbench has %d cohorts, want 2: %+v", len(cs), cs)
	}
	gotBits, gotInfo, err := re.Engine.CohortBits("women")
	if err != nil {
		t.Fatal(err)
	}
	if !gotBits.Equal(wantBits) {
		t.Fatalf("adopted cohort bits diverge: %d vs %d", gotBits.Count(), wantBits.Count())
	}
	if gotInfo.Count != wantBits.Count() {
		t.Fatalf("adopted cohort count %d, want %d", gotInfo.Count, wantBits.Count())
	}

	// The adopted parent must seed refinements in the fresh engine.
	x, err := re.Engine.Explain(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if x.Seed == nil {
		t.Fatal("adopted cohort does not seed plans after reopen")
	}
	_, ref, err := re.RefineCohort("women2", narrow)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Mode == "scratch" {
		t.Fatal("refinement after reopen fell back to scratch")
	}
	b2, _, err := re.Engine.CohortBits("women2")
	if err != nil {
		t.Fatal(err)
	}
	if !b2.Equal(wantBits) {
		t.Fatal("refinement after reopen diverges from pre-save bits")
	}
}

// TestCohortCompare: the comparison is exact set algebra plus two
// mergeable profiles.
func TestCohortCompare(t *testing.T) {
	cfg := synth.DefaultConfig(120)
	window := cfg.Window()
	wb := wbAtShards(t, synth.Generate(cfg), integrate.DefaultOptions(), window, 4)

	if _, err := wb.SaveCohort("women", query.SexIs(model.SexFemale)); err != nil {
		t.Fatal(err)
	}
	if _, err := wb.SaveCohort("diag", query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}); err != nil {
		t.Fatal(err)
	}
	cmp, err := wb.CompareCohorts("women", "diag")
	if err != nil {
		t.Fatal(err)
	}
	ba, _, _ := wb.Engine.CohortBits("women")
	bb, _, _ := wb.Engine.CohortBits("diag")
	inter := ba.Clone()
	inter.And(bb)
	if cmp.Both != inter.Count() {
		t.Fatalf("Both = %d, want %d", cmp.Both, inter.Count())
	}
	if cmp.OnlyA != ba.Count()-inter.Count() || cmp.OnlyB != bb.Count()-inter.Count() {
		t.Fatalf("OnlyA/OnlyB = %d/%d, want %d/%d",
			cmp.OnlyA, cmp.OnlyB, ba.Count()-inter.Count(), bb.Count()-inter.Count())
	}
	if cmp.ProfileA.Patients != ba.Count() || cmp.ProfileB.Patients != bb.Count() {
		t.Fatalf("profile patients %d/%d, want %d/%d",
			cmp.ProfileA.Patients, cmp.ProfileB.Patients, ba.Count(), bb.Count())
	}
	if _, err := wb.CompareCohorts("women", "no-such"); err == nil {
		t.Fatal("comparing against a missing cohort must error")
	}
}

// TestCohortSaveAfterAppendDropsStale: an append invalidates the
// workspace, so a save right after ingest persists no cohorts — and a
// re-materialized cohort at the new generation is saved.
func TestCohortSaveAfterAppendDropsStale(t *testing.T) {
	cfg := synth.DefaultConfig(80)
	window := cfg.Window()
	opts := integrate.DefaultOptions()
	opts.OpenIntervalEnd = window.End.AddDays(30)
	wb := wbAtShards(t, synth.Generate(cfg), opts, window, 4)

	parent := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
	if _, err := wb.SaveCohort("diag", parent); err != nil {
		t.Fatal(err)
	}
	if err := wb.Append(synth.GenerateAppend(cfg, 81, 85, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	info, err := wb.Save(&buf, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cohorts != 0 {
		t.Fatalf("post-append save persisted %d cohorts, want 0 (stale dropped)", info.Cohorts)
	}

	if _, err := wb.SaveCohort("diag", parent); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	info, err = wb.Save(&buf, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cohorts != 1 {
		t.Fatalf("re-materialized save persisted %d cohorts, want 1", info.Cohorts)
	}
	re, err := Open(bytes.NewReader(buf.Bytes()), window)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Cohorts(); len(got) != 1 || got[0].Name != "diag" {
		t.Fatalf("reopened cohorts = %+v", got)
	}
}
