// Command wattdb-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	wattdb-bench -exp fig1|fig2|fig3|fig6|fig7|fig8|all [-preset quick|paper] [-seed N]
//
// Output is the textual equivalent of each figure: the same series/bars the
// paper plots. EXPERIMENTS.md records a reference run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"wattdb/internal/experiments"
)

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "experiment: fig1, fig2, fig3, fig6, fig7, fig8, or all")
	preset := flag.String("preset", "quick", "scale preset: quick or paper")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	var pre experiments.Preset
	switch *preset {
	case "quick":
		pre = experiments.Quick()
	case "paper":
		pre = experiments.Paper()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	pre.Seed = *seed

	matched := false
	for _, e := range []struct {
		name string
		fn   func(experiments.Preset) (fmt.Stringer, error)
	}{
		{"fig1", stringer(experiments.Fig1)},
		{"fig2", stringer(experiments.Fig2)},
		{"fig3", stringer(experiments.Fig3)},
		{"fig6", stringer(experiments.Fig6)},
		{"fig7", stringer(experiments.Fig7)},
		{"fig8", stringer(experiments.Fig8)},
	} {
		if *exp != "all" && *exp != e.name {
			continue
		}
		matched = true
		start := time.Now()
		res, err := e.fn(pre)
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s completed in %.1fs wall time]\n\n", e.name, time.Since(start).Seconds())
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// stringer adapts a figure's typed result to fmt.Stringer.
func stringer[R fmt.Stringer](fig func(experiments.Preset) (R, error)) func(experiments.Preset) (fmt.Stringer, error) {
	return func(pre experiments.Preset) (fmt.Stringer, error) { return fig(pre) }
}
