// Quickstart: load a population, identify a cohort with the Query-Builder,
// align it on the index event, and render the workbench timeline — the
// paper's core loop in ~50 lines of public API.
package main

import (
	"fmt"
	"log"
	"os"

	"pastas"
)

func main() {
	log.SetFlags(0)

	// 1. Load. (Real deployments integrate registry extracts via
	//    pastas.FromBundle; here we synthesize a small population.)
	wb, err := pastas.Synthesize(pastas.DefaultSynthConfig(2000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d patients, %d entries\n", wb.Patients(), wb.Entries())

	// 2. Identify a cohort: diabetics, by regex over both code systems.
	q, err := pastas.NewQueryBuilder().
		HasCode(`T90|E11(\..*)?`).
		MinContacts("gp", 2).
		Compile()
	if err != nil {
		log.Fatal(err)
	}
	diabetics, err := wb.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diabetics with GP follow-up: %d\n", diabetics.Count())

	// 3. Open a session, extract the cohort, align on first T90.
	sess, err := pastas.NewSession(wb)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Extract(q); err != nil {
		log.Fatal(err)
	}
	anchor, err := pastas.AlignFirst("T90")
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.AlignOn(anchor); err != nil {
		log.Fatal(err)
	}

	// 4. Render the Fig. 1 view and inspect one patient.
	svg := sess.RenderTimeline(pastas.TimelineOptions{MaxRows: 40, Tooltips: true, Legend: true})
	if err := os.WriteFile("quickstart_timeline.svg", []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote quickstart_timeline.svg (%d KiB)\n", len(svg)/1024)

	if sess.View().Len() > 0 {
		h := sess.View().At(0)
		fmt.Printf("\ndetails-on-demand for %s around their first entry:\n", h.Patient.ID)
		for _, line := range pastas.Details(h, h.Entries[0].Start, 7*pastas.Day) {
			fmt.Println("  " + line)
		}
	}

	// 5. The session auditing every operation against the 0.1 s budget.
	fmt.Println("\n" + sess.Budget().String())
}
