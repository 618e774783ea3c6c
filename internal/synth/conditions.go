package synth

import (
	"pastas/internal/model"
	"pastas/internal/sources"
)

// Chronic-condition modules. Each condition carries an age/sex prevalence
// and an emitter that writes the condition's two-year utilization pattern
// into the patient's registry records: GP control visits, prescriptions,
// hospital episodes, municipal services and physiotherapy, coded in ICPC-2
// on the primary-care side and ICD-10 on the specialist side.

// condition is one chronic-disease module.
type condition struct {
	name string
	// prev returns point prevalence for the patient.
	prev func(age int, sex model.Sex) float64
	// emit writes the condition's records for the window.
	emit func(p *patientCtx)
}

// ageBand returns prevalence from under-40 / 40-59 / 60-74 / 75+ bands.
func ageBand(age int, under40, mid, senior, old float64) float64 {
	switch {
	case age < 40:
		return under40
	case age < 60:
		return mid
	case age < 75:
		return senior
	default:
		return old
	}
}

// conditions is the module registry. Prevalences approximate Norwegian
// general-practice figures; together they are calibrated so the paper's
// cohort criteria select ≈13k of 168k patients (experiment E1).
var conditions = []condition{
	{"hypertension", func(age int, _ model.Sex) float64 { return ageBand(age, 0.02, 0.12, 0.30, 0.40) }, (*patientCtx).emitHypertension},
	{"diabetes2", func(age int, _ model.Sex) float64 { return ageBand(age, 0.01, 0.05, 0.12, 0.14) }, (*patientCtx).emitDiabetes2},
	{"copd", func(age int, _ model.Sex) float64 { return ageBand(age, 0.005, 0.03, 0.08, 0.10) }, (*patientCtx).emitCOPD},
	{"asthma", func(_ int, _ model.Sex) float64 { return 0.06 }, (*patientCtx).emitAsthma},
	{"depression", func(age int, _ model.Sex) float64 {
		if age < 18 {
			return 0.01
		}
		return 0.07
	}, (*patientCtx).emitDepression},
	{"ihd", func(age int, _ model.Sex) float64 { return ageBand(age, 0.002, 0.04, 0.12, 0.18) }, (*patientCtx).emitIHD},
	{"heartfailure", func(age int, _ model.Sex) float64 { return ageBand(age, 0.002, 0.005, 0.04, 0.10) }, (*patientCtx).emitHeartFailure},
	{"afib", func(age int, _ model.Sex) float64 { return ageBand(age, 0.002, 0.005, 0.06, 0.12) }, (*patientCtx).emitAfib},
	{"osteoarthritis", func(age int, _ model.Sex) float64 { return ageBand(age, 0.005, 0.06, 0.15, 0.20) }, (*patientCtx).emitOsteoarthritis},
	{"hypothyroid", func(age int, sex model.Sex) float64 {
		if age < 18 {
			return 0.002
		}
		if sex == model.SexFemale {
			return 0.06
		}
		return 0.015
	}, (*patientCtx).emitHypothyroid},
	{"dementia", func(age int, _ model.Sex) float64 {
		switch {
		case age < 75:
			return 0.002
		case age < 85:
			return 0.12
		default:
			return 0.30
		}
	}, (*patientCtx).emitDementia},
	{"cancer", func(age int, _ model.Sex) float64 {
		if age < 50 {
			return 0.002
		}
		return 0.015
	}, (*patientCtx).emitCancer},
}

// --- chronic-condition emitters ------------------------------------------

// emitHypertension: regular GP controls with blood-pressure readings
// (these are Fig. 1's measurement arrows) plus antihypertensive refills.
func (p *patientCtx) emitHypertension() {
	icpc := "K86"
	if p.r.Bernoulli(0.15) {
		icpc = "K87" // complicated hypertension
	}
	for _, t := range p.visitDays(3.0) {
		sys := p.r.NormalInt(150, 15, 110, 210)
		dia := p.r.NormalInt(90, 8, 60, 120)
		p.gpVisit(t, icpc, false, sys, dia, visitPhrases)
	}
	classes := []string{"C03A", "C07AB02", "C09AA05", "C08C"}
	n := 1 + p.r.Intn(2)
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 90*model.Day})
	for i := 0; i < n; i++ {
		p.refills(start.AddDays(i*7), Pick(p.r, classes), 90)
	}
}

// emitDiabetes2: quarterly T90 controls, metformin (sometimes insulin)
// refills, annual ophthalmology outpatient check.
func (p *patientCtx) emitDiabetes2() {
	for _, t := range p.visitDays(4.0) {
		sys, dia := 0, 0
		if p.r.Bernoulli(0.5) {
			sys = p.r.NormalInt(140, 14, 105, 200)
			dia = p.r.NormalInt(85, 8, 55, 115)
		}
		p.gpVisit(t, "T90", false, sys, dia, visitPhrases)
	}
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 90*model.Day})
	p.refills(start, "A10BA02", 90)
	if p.r.Bernoulli(0.10) {
		p.refills(start.AddDays(30), "A10A", 90)
	}
	for year := 0; year < int(p.years()); year++ {
		if p.r.Bernoulli(0.7) {
			t := p.r.DayIn(model.Period{
				Start: p.window.Start + model.Time(year)*model.Year,
				End:   p.window.Start + model.Time(year+1)*model.Year,
			})
			p.outpatient(t, "E11.3")
		}
	}
}

// emitCOPD: R95 controls, inhaler refills, and exacerbations that arrive
// via the emergency GP service and end as inpatient J44.1 stays.
func (p *patientCtx) emitCOPD() {
	for _, t := range p.visitDays(3.0) {
		p.gpVisit(t, "R95", false, 0, 0, visitPhrases)
	}
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 120*model.Day})
	p.refills(start, "R03AC02", 90)
	if p.r.Bernoulli(0.5) {
		p.refills(start.AddDays(14), "R03B", 90)
	}
	n := p.r.Poisson(0.4 * p.years())
	for i := 0; i < n; i++ {
		t := p.r.DayIn(p.window)
		p.gpVisit(t, "R95", true, 0, 0, acutePhrases)
		p.inpatient(t, 3+p.r.Intn(8), "J44.1", "J44")
	}
}

// emitAsthma: R96 controls and salbutamol refills; rare emergency visits.
func (p *patientCtx) emitAsthma() {
	for _, t := range p.visitDays(1.5) {
		p.gpVisit(t, "R96", false, 0, 0, visitPhrases)
	}
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 120*model.Day})
	p.refills(start, "R03AC02", 120)
	if p.r.Bernoulli(0.2 * p.years()) {
		p.gpVisit(p.r.DayIn(p.window), "R96", true, 0, 0, acutePhrases)
	}
}

// emitDepression: frequent GP contact, SSRI refills, psychiatrist claims.
func (p *patientCtx) emitDepression() {
	for _, t := range p.visitDays(4.0) {
		p.gpVisit(t, "P76", false, 0, 0, visitPhrases)
	}
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 120*model.Day})
	p.refills(start, "N06AB04", 90)
	n := p.r.Poisson(1.5)
	for i := 0; i < n; i++ {
		p.specialist(p.r.DayIn(p.window), "F32", "psychiatry")
	}
}

// emitIHD: angina controls, statin + antithrombotic refills, and a possible
// acute myocardial infarction with inpatient stay and cardiology follow-up.
func (p *patientCtx) emitIHD() {
	for _, t := range p.visitDays(2.0) {
		p.gpVisit(t, "K74", false, 0, 0, visitPhrases)
	}
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 90*model.Day})
	p.refills(start, "C10AA01", 90)
	p.refills(start.AddDays(7), "B01A", 90)
	if p.r.Bernoulli(0.06 * p.years()) {
		t := p.r.DayIn(p.window)
		p.gpVisit(t, "K75", true, 0, 0, acutePhrases)
		p.inpatient(t, 5+p.r.Intn(6), "I21.9", "E78")
		for _, off := range []int{30, 90} {
			ft := t.AddDays(off)
			if ft.Before(p.window.End) {
				p.outpatient(ft, "I25")
			}
		}
	}
}

// emitHeartFailure: tight GP follow-up with BP, loop-diuretic refills,
// decompensation admissions.
func (p *patientCtx) emitHeartFailure() {
	for _, t := range p.visitDays(4.0) {
		sys := p.r.NormalInt(135, 18, 90, 200)
		dia := p.r.NormalInt(80, 10, 50, 110)
		p.gpVisit(t, "K77", false, sys, dia, visitPhrases)
	}
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 60*model.Day})
	p.refills(start, "C03C", 60)
	if p.r.Bernoulli(0.22 * p.years()) {
		t := p.r.DayIn(p.window)
		p.inpatient(t, 4+p.r.Intn(9), "I50.9", "I50")
	}
}

// emitAfib: rate controls, anticoagulation, annual cardiology outpatient,
// occasional electroconversion day treatment.
func (p *patientCtx) emitAfib() {
	for _, t := range p.visitDays(2.0) {
		p.gpVisit(t, "K78", false, 0, 0, visitPhrases)
	}
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 90*model.Day})
	p.refills(start, "B01A", 90)
	for year := 0; year < int(p.years()); year++ {
		if p.r.Bernoulli(0.8) {
			t := p.r.DayIn(model.Period{
				Start: p.window.Start + model.Time(year)*model.Year,
				End:   p.window.Start + model.Time(year+1)*model.Year,
			})
			p.outpatient(t, "I48")
		}
	}
	if p.r.Bernoulli(0.05) {
		p.dayTreatment(p.r.DayIn(p.window), "I48")
	}
}

// emitOsteoarthritis: hip or knee arthrosis with NSAID refills, physio
// series, and a possible joint replacement with rehabilitation.
func (p *patientCtx) emitOsteoarthritis() {
	icpc, icd := "L89", "M16"
	if p.r.Bernoulli(0.5) {
		icpc, icd = "L90", "M17"
	}
	for _, t := range p.visitDays(2.0) {
		p.gpVisit(t, icpc, false, 0, 0, visitPhrases)
	}
	if p.r.Bernoulli(0.6) {
		start := p.r.DayIn(p.window)
		p.refills(start, "M01A", 60)
	}
	if p.r.Bernoulli(0.5) {
		p.physio(p.r.DayIn(p.window), icpc, 6+p.r.Intn(8))
	}
	if p.r.Bernoulli(0.08) {
		t := p.r.DayIn(p.window)
		p.inpatient(t, 5+p.r.Intn(4), icd)
		after := t.AddDays(14)
		if after.Before(p.window.End) {
			p.physio(after, icpc, 10+p.r.Intn(10))
		}
		ctrl := t.AddDays(90)
		if ctrl.Before(p.window.End) {
			p.outpatient(ctrl, icd)
		}
	}
}

// emitHypothyroid: T86 controls with levothyroxine refills.
func (p *patientCtx) emitHypothyroid() {
	for _, t := range p.visitDays(1.5) {
		p.gpVisit(t, "T86", false, 0, 0, visitPhrases)
	}
	start := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + 120*model.Day})
	p.refills(start, "H03A", 90)
}

// emitDementia: P70 follow-up, home care escalating to an open-ended
// nursing-home stay for the oldest.
func (p *patientCtx) emitDementia() {
	for _, t := range p.visitDays(3.0) {
		p.gpVisit(t, "P70", false, 0, 0, visitPhrases)
	}
	if p.r.Bernoulli(0.6) {
		from := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.Start + model.Year})
		if p.age >= 80 && p.r.Bernoulli(0.5) {
			// Home care, then a nursing-home admission that is still
			// running at extract time.
			mid := from.AddDays(120 + p.r.Intn(240))
			p.municipal(from, mid, sources.ServiceHomeCare)
			p.municipal(mid, model.NoTime, sources.ServiceNursing)
		} else {
			p.municipal(from, model.NoTime, sources.ServiceHomeCare)
		}
	}
	if p.r.Bernoulli(0.4) {
		p.outpatient(p.r.DayIn(p.window), "F03")
	}
}

// emitCancer: diagnosis, surgical admission, a weekly day-treatment series
// (Z51.5 with the tumour as secondary code), and outpatient follow-up —
// breast cancer for women, prostate for men.
func (p *patientCtx) emitCancer() {
	icpc, icd := "X76", "C50"
	if p.sex == model.SexMale {
		icpc, icd = "Y77", "C61"
	}
	dx := p.r.DayIn(model.Period{Start: p.window.Start, End: p.window.End - 120*model.Day})
	p.gpVisit(dx, icpc, false, 0, 0, acutePhrases)
	surgery := dx.AddDays(14 + p.r.Intn(21))
	p.inpatient(surgery, 3+p.r.Intn(5), icd)
	series := 10 + p.r.Intn(7)
	for i := 0; i < series; i++ {
		t := surgery.AddDays(21 + i*7)
		if !t.Before(p.window.End) {
			break
		}
		p.dayTreatment(t, "Z51.5", icd)
	}
	for _, off := range []int{180, 330} {
		t := surgery.AddDays(off)
		if t.Before(p.window.End) {
			p.outpatient(t, icd)
		}
	}
}

// --- acute incident events ------------------------------------------------

// emitAcuteEvents adds incidence-based events: stroke, hip fracture,
// pneumonia and appendicitis — the acute-care trajectories the paper's
// title points at (emergency contact → admission → rehabilitation →
// municipal services).
func (p *patientCtx) emitAcuteEvents() {
	p.emitPneumonia()
	p.emitAppendicitis()
	// Stroke.
	strokeP := ageBand(p.age, 0.0005, 0.004, 0.008, 0.024) * p.years()
	if p.r.Bernoulli(strokeP) {
		t := p.r.DayIn(p.window)
		p.inpatient(t, 10+p.r.Intn(11), "I63.9", "I10")
		disch := t.AddDays(12)
		if disch.Before(p.window.End) {
			p.gpVisit(disch.AddDays(7), "K90", false, 0, 0, visitPhrases)
			p.physio(disch.AddDays(10), "K90", 8+p.r.Intn(12))
			p.refills(disch, "B01A", 90)
			if p.age >= 70 && p.r.Bernoulli(0.6) {
				if p.r.Bernoulli(0.3) {
					p.municipal(disch, model.NoTime, sources.ServiceHomeCare)
				} else {
					p.municipal(disch, disch.AddDays(90+p.r.Intn(210)), sources.ServiceHomeCare)
				}
			}
		}
	}

	// Hip fracture.
	var fracP float64
	switch {
	case p.age < 60:
		fracP = 0.001
	case p.age < 75:
		fracP = 0.006
	default:
		if p.sex == model.SexFemale {
			fracP = 0.03
		} else {
			fracP = 0.014
		}
	}
	if p.r.Bernoulli(fracP * p.years()) {
		t := p.r.DayIn(p.window)
		p.gpVisit(t, "L75", true, 0, 0, acutePhrases)
		p.inpatient(t, 7+p.r.Intn(8), "S72.0", "S72")
		after := t.AddDays(14 + p.r.Intn(7))
		if after.Before(p.window.End) {
			p.physio(after, "L75", 10+p.r.Intn(10))
			p.gpVisit(after.AddDays(30), "L75", false, 0, 0, visitPhrases)
			p.refills(after, "M05B", 90)
			if p.age >= 83 && p.r.Bernoulli(0.3) {
				p.municipal(after, model.NoTime, sources.ServiceNursing)
			}
		}
	}
}

// emitPneumonia: winter-season pneumonia, mostly in the elderly — the
// classic acute pathway: emergency GP contact, same-day admission, GP
// follow-up, antibiotics.
func (p *patientCtx) emitPneumonia() {
	rate := ageBand(p.age, 0.002, 0.004, 0.010, 0.030)
	if !p.r.Bernoulli(rate * p.years()) {
		return
	}
	// Bias toward winter: pick a day in Nov-Mar of a random window year.
	year := p.r.Intn(int(p.years()))
	winterStart := p.window.Start + model.Time(year)*model.Year + 300*model.Day
	t := p.r.DayIn(model.Period{Start: winterStart, End: winterStart + 120*model.Day})
	if !p.window.Contains(t) {
		t = p.r.DayIn(p.window)
	}
	p.gpVisit(t, "R81", true, 0, 0, acutePhrases)
	if p.age >= 60 || p.r.Bernoulli(0.3) {
		p.inpatient(t, 4+p.r.Intn(7), "J18")
	}
	p.out.Prescriptions = append(p.out.Prescriptions, sources.Prescription{
		Person: p.id, Date: dateStr(t), ATC: "J01C", DurationDays: 10,
	})
	follow := t.AddDays(14)
	if follow.Before(p.window.End) {
		p.gpVisit(follow, "R81", false, 0, 0, visitPhrases)
	}
}

// emitAppendicitis: the young person's acute abdomen — emergency contact
// and a short surgical stay.
func (p *patientCtx) emitAppendicitis() {
	var rate float64
	switch {
	case p.age < 30:
		rate = 0.002
	case p.age < 50:
		rate = 0.001
	default:
		rate = 0.0004
	}
	if !p.r.Bernoulli(rate * p.years()) {
		return
	}
	t := p.r.DayIn(p.window)
	p.gpVisit(t, "D06", true, 0, 0, acutePhrases)
	p.inpatient(t, 2+p.r.Intn(3), "K35")
}

// --- background utilization ------------------------------------------------

// backgroundCodes are the everyday acute reasons for GP contact, weighted;
// age- and sex-specific entries are appended in emitBackground.
var backgroundCodes = []struct {
	icpc   string
	weight float64
}{
	{"R74", 0.25}, // acute URI
	{"L03", 0.12}, // low back
	{"A04", 0.08}, // fatigue
	{"D73", 0.06}, // gastroenteritis
	{"N01", 0.05}, // headache
	{"S18", 0.05}, // laceration
	{"L77", 0.04}, // ankle sprain
	{"P06", 0.04}, // sleep disturbance
	{"R80", 0.07}, // influenza
	{"S88", 0.03}, // contact dermatitis
	{"D01", 0.04}, // abdominal pain
	{"R05", 0.05}, // cough
}

// emitBackground writes the population-wide utilization floor: everyday GP
// contacts, annual checkups with BP, occasional physiotherapy and private
// specialists.
func (p *patientCtx) emitBackground() {
	rate := 1.2
	switch {
	case p.age < 18:
		rate = 1.5
	case p.age >= 75:
		rate = 2.0
	case p.age >= 60:
		rate = 1.6
	}

	codes := make([]string, 0, len(backgroundCodes)+2)
	weights := make([]float64, 0, len(backgroundCodes)+2)
	for _, c := range backgroundCodes {
		codes = append(codes, c.icpc)
		weights = append(weights, c.weight)
	}
	if p.sex == model.SexFemale && p.age >= 16 {
		codes = append(codes, "U71")
		weights = append(weights, 0.08)
	}
	if p.age < 15 {
		codes = append(codes, "H71")
		weights = append(weights, 0.15)
	}

	for _, t := range p.visitDays(rate) {
		icpc := codes[p.r.Weighted(weights)]
		emergency := p.r.Bernoulli(0.10)
		p.gpVisit(t, icpc, emergency, 0, 0, acutePhrases)
	}

	// Annual checkup with a blood-pressure reading.
	for year := 0; year < int(p.years()); year++ {
		if p.age >= 18 && p.r.Bernoulli(0.25) {
			t := p.r.DayIn(model.Period{
				Start: p.window.Start + model.Time(year)*model.Year,
				End:   p.window.Start + model.Time(year+1)*model.Year,
			})
			sys := p.r.NormalInt(128, 12, 95, 180)
			dia := p.r.NormalInt(80, 8, 55, 110)
			p.gpVisit(t, "A30", false, sys, dia, visitPhrases)
		}
	}

	if p.age >= 18 && p.r.Bernoulli(0.05) {
		p.physio(p.r.DayIn(p.window), "L03", 6+p.r.Intn(6))
	}
	if p.r.Bernoulli(0.04) {
		kind := Pick(p.r, []struct{ icd, spec string }{
			{"L20", "dermatology"},
			{"H25", "ophthalmology"},
			{"H66", "otolaryngology"},
			{"M54", "orthopedics"},
		})
		p.specialist(p.r.DayIn(p.window), kind.icd, kind.spec)
	}
}
