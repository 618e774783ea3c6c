// Command experiments runs the full paper-reproduction suite and prints the
// measured-vs-paper report (-md also writes it as Markdown), writing figure
// artifacts alongside.
//
// Usage:
//
//	experiments -population 168000 -out out
//	experiments -quick -population 8000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"pastas/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	population := flag.Int("population", 168000, "synthetic population size (paper: 168000)")
	seed := flag.Int64("seed", 42, "generator seed")
	out := flag.String("out", "out", "artifact directory ('' = skip)")
	quick := flag.Bool("quick", false, "reduced trial counts")
	mdPath := flag.String("md", "", "also write the run record as Markdown to this path")
	flag.Parse()

	start := time.Now()
	suite, err := experiments.NewSuite(experiments.Config{
		Population: *population,
		Seed:       *seed,
		OutDir:     *out,
		Quick:      *quick,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("population %d built in %v (%d entries)\n\n",
		suite.WB.Patients(), suite.BuildTime.Round(time.Millisecond), suite.WB.Entries())

	results, err := suite.RunAll()
	if err != nil {
		log.Fatal(err)
	}
	pass := 0
	for _, r := range results {
		fmt.Println(r.Format())
		if r.Pass {
			pass++
		}
	}
	fmt.Printf("—— %d/%d experiments shape-consistent with the paper; total %v ——\n",
		pass, len(results), time.Since(start).Round(time.Second))

	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteReport(f, suite, results, time.Since(start)); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run record written to %s\n", *mdPath)
	}
}
