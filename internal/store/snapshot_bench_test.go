package store

import (
	"bytes"
	"fmt"
	"testing"

	"pastas/internal/model"
)

// benchCollection hand-builds a deterministic collection (no synth
// dependency in the hot loop) sized like a mid-size extract: n patients,
// ~12 entries each.
func benchCollection(n int) *model.Collection {
	base := model.Date(2010, 1, 1)
	codes := []model.Code{
		{System: "ICPC2", Value: "T90"}, {System: "ICPC2", Value: "K86"},
		{System: "ICD10", Value: "E11.9"}, {System: "ATC", Value: "A10BA02"},
	}
	hs := make([]*model.History, n)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1950, 1, 1)})
		for j := 0; j < 12; j++ {
			e := model.Entry{
				ID: uint64(i*100 + j), Kind: model.Point,
				Start: base.AddDays(j * 30), End: base.AddDays(j * 30),
				Source: model.SourceGP, Type: model.TypeContact,
			}
			if j%3 == 0 {
				e.Type = model.TypeDiagnosis
				e.Code = codes[(i+j)%len(codes)]
			}
			h.Add(e)
		}
		hs[i] = h
	}
	return model.MustCollection(hs...)
}

// BenchmarkSnapshotRoundTrip pins the snapshot persistence numbers on the
// 5k fixture at 1, 4 and 16 shards. Two things make it fast: the
// hand-rolled varint segment codec skips gob's per-value reflection (the
// single-gob stream it replaced saved at ~98 MB/s and loaded at ~69 MB/s,
// for a file ~3× larger), and independent segments decode on a worker
// pool, which is what scales with cores. b.SetBytes uses each variant's
// own on-disk size; the patients/s metric (and time/op) compares the same
// logical collection across shard counts.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	st := New(benchCollection(5000))
	patientsPerSec := func(b *testing.B) {
		b.Helper()
		secPerOp := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(float64(st.Len())/secPerOp, "patients/s")
	}

	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("save/shards=%d", shards), func(b *testing.B) {
			var buf bytes.Buffer
			if _, err := Save(&buf, st, shards, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, err := Save(&buf, st, shards, nil); err != nil {
					b.Fatal(err)
				}
			}
			patientsPerSec(b)
		})
		b.Run(fmt.Sprintf("load/shards=%d", shards), func(b *testing.B) {
			snap, _ := saveSnap(b, st, shards, nil)
			b.SetBytes(int64(len(snap)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, _, err := Load(bytes.NewReader(snap))
				if err != nil {
					b.Fatal(err)
				}
				if got.Len() != st.Len() {
					b.Fatal("round trip lost patients")
				}
			}
			patientsPerSec(b)
		})
	}
}
