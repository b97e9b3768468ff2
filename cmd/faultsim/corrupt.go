// The -corrupt mode: drive the corruption campaign (internal/sweep) over
// one or both backends and print one outcome count line per fault class.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/sweep"
)

func runCorrupt(seed int64, regionSpec, classSpec string) error {
	var regions []faultinject.Region
	for _, s := range splitSpec(regionSpec) {
		r, err := faultinject.ParseRegion(s)
		if err != nil {
			return err
		}
		regions = append(regions, r)
	}
	var classes []faultinject.Class
	for _, s := range splitSpec(classSpec) {
		c, err := faultinject.ParseClass(s)
		if err != nil {
			return err
		}
		classes = append(classes, c)
	}

	backends := []string{"heap", "mmap"}
	if backend != "" {
		backends = []string{backend}
	}

	violations := 0
	for _, be := range backends {
		fmt.Printf("-- corruption campaign: backend %s --\n", be)
		trials, vs, err := sweep.RunCorrupt(sweep.CorruptConfig{
			Backend: be,
			Seed:    seed,
			Regions: regions,
			Classes: classes,
			Log: func(format string, args ...any) {
				fmt.Printf("  "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		for _, v := range vs {
			fmt.Fprintf(os.Stderr, "VIOLATION %s\n", v)
		}
		violations += len(vs)

		// RunCorrupt runs the trials class by class: print each class's
		// outcome counts and the most words one trial's repair rewrote.
		for len(trials) > 0 {
			n := 1
			for n < len(trials) && trials[n].Class == trials[0].Class {
				n++
			}
			outcomes := map[string]int{}
			maxBlast := 0
			for _, tr := range trials[:n] {
				outcomes[tr.Outcome]++
				maxBlast = max(maxBlast, tr.Blast.WordsRewritten)
			}
			fmt.Printf("  %s: %d trials — %d repaired, %d quarantined, %d benign, %d violations (max blast %d words)\n",
				trials[0].Class, n, outcomes["repaired"], outcomes["quarantined"], outcomes["benign"],
				outcomes["violation"], maxBlast)
			trials = trials[n:]
		}
	}
	if violations > 0 {
		return fmt.Errorf("corruption campaign: %d violations", violations)
	}
	return nil
}

func splitSpec(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
