package core

import (
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/terminology"
)

// The study's "predefined characteristics" (Section IV). The paper does not
// publish the exact inclusion criteria beyond "chronically ill patients ...
// frequently have complex patient histories" in a prospective cohort with
// two years of somatic utilization data; we operationalize that as:
//
//  1. at least one chronic-condition diagnosis (ICPC-2 or its ICD-10
//     counterpart) inside the window, and
//  2. at least six GP contacts inside the window (an ongoing primary-care
//     relationship), and
//  3. substantial specialist-care involvement inside the window: a hospital
//     admission or day treatment, or at least two hospital outpatient
//     visits (the acute-care dimension of the title).
//
// Against the calibrated synthetic population this selects ≈7.75 % —
// 13,000 of 168,000 patients, the paper's reported selection (experiment
// E1).

// chronicICPC matches the chronic-condition ICPC-2 codes.
var chronicICPC = terminology.Disjunction(
	`T89`, `T90`, // diabetes
	`K86`, `K87`, // hypertension
	`K74`, `K75`, `K76`, `K77`, `K78`, // ischaemic heart disease, MI, failure, afib
	`K90`, `K91`, // stroke, cerebrovascular
	`R95`, `R96`, // COPD, asthma
	`P70`, `P76`, // dementia, depression
	`L88`, `L89`, `L90`, `L95`, // arthritis, arthrosis, osteoporosis
	`N86`, `N87`, `N88`, // MS, parkinsonism, epilepsy
	`T86`,        // hypothyroidism
	`X76`, `Y77`, // breast / prostate cancer
)

// chronicICD matches the ICD-10 counterparts (with subcode suffixes).
var chronicICD = terminology.Disjunction(
	`E1[01](\..*)?`,                       // diabetes
	`I1[01]`,                              // hypertensive disease
	`I2[015](\..*)?`, `I48`, `I50(\..*)?`, // IHD, afib, failure
	`I6[1234](\..*)?`, // cerebrovascular
	`J4[45](\..*)?`,   // COPD, asthma
	`F03`, `F32`,      // dementia, depression
	`M1[67]`, `M81`, // arthrosis, osteoporosis
	`G20`, `G35`, `G40`, // parkinson, MS, epilepsy
	`E03`,        // hypothyroidism
	`C50`, `C61`, // breast / prostate cancer
)

// StudyCriteria returns the predefined-characteristics expression used for
// the 168k→13k selection, restricted to the observation window.
func StudyCriteria(window model.Period) query.Expr {
	inWindow := query.InPeriod(window)
	return query.And{
		query.Or{
			query.Has{Pred: query.AllOf{
				query.TypeIs(model.TypeDiagnosis),
				query.MustCode("ICPC2", chronicICPC),
				inWindow,
			}},
			query.Has{Pred: query.AllOf{
				query.TypeIs(model.TypeDiagnosis),
				query.MustCode("ICD10", chronicICD),
				inWindow,
			}},
		},
		query.Has{
			Pred: query.AllOf{
				query.TypeIs(model.TypeContact),
				query.SourceIs(model.SourceGP),
				inWindow,
			},
			MinCount: 6,
		},
		query.Or{
			query.Has{Pred: query.AllOf{
				query.TypeIs(model.TypeStay),
				query.SourceIs(model.SourceHospital),
				inWindow,
			}},
			query.Has{
				Pred: query.AllOf{
					query.TypeIs(model.TypeContact),
					query.SourceIs(model.SourceHospital),
					inWindow,
				},
				MinCount: 2,
			},
		},
	}
}

// ChronicDiagnosis returns the chronic-condition predicate alone (both
// systems), reusable for per-condition breakdowns.
func ChronicDiagnosis() query.Expr {
	return query.Or{
		query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICPC2", chronicICPC)}},
		query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICD10", chronicICD)}},
	}
}
