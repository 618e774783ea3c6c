// Cohortstudy: the paper's Section-IV research-project pipeline at 1/10
// scale — select patients by the predefined characteristics (the 168k→13k
// selection), describe the cohort, and run the recognition survey that
// produced the published 92% / 7% / 1% feedback.
package main

import (
	"fmt"
	"log"

	"pastas"
	"pastas/internal/stats"
)

func main() {
	log.SetFlags(0)

	const population = 16800 // 1/10 of the paper's data set
	wb, err := pastas.Synthesize(pastas.DefaultSynthConfig(population))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("population: %d patients, %d entries\n", wb.Patients(), wb.Entries())

	// The predefined-characteristics selection.
	study, err := wb.Query(pastas.StudyCriteria(wb.Window))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected: %d (%.2f%%) — paper: 13,000 of 168,000 (7.74%%)\n",
		study.Count(), 100*float64(study.Count())/float64(population))

	// Describe the cohort: contacts per patient.
	col, err := wb.Histories(study)
	if err != nil {
		log.Fatal(err)
	}
	var contacts []float64
	for _, h := range col.Histories() {
		n := 0
		for i := range h.Entries {
			if h.Entries[i].Type == pastas.TypeContact {
				n++
			}
		}
		contacts = append(contacts, float64(n))
	}
	fmt.Printf("contacts per selected patient: median %.0f, p90 %.0f\n",
		stats.Median(contacts), stats.Quantile(contacts, 0.9))

	// The recognition survey.
	res := pastas.SimulateSurvey(col, pastas.DefaultSurveyParams())
	rec, notRem, wrong := res.Proportions()
	fmt.Printf("\nsurvey (paper: 92%% recognized, 7%% did not remember, 1%% all wrong):\n")
	fmt.Printf("  recognized:       %5.1f%%\n", 100*rec)
	fmt.Printf("  did not remember: %5.1f%%\n", 100*notRem)
	fmt.Printf("  everything wrong: %5.1f%%\n", 100*wrong)
}
