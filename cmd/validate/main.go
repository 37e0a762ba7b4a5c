// Command validate runs the engine-vs-model validation: it builds the cost
// model's R/S database inside the real engine at a configurable scale,
// measures the page I/O of read and update queries under each replication
// strategy, and prints the measurements next to the analytical model's
// predictions at the same parameters.
//
// Usage:
//
//	validate [-s 2000] [-f 1,5,10] [-fr 0.01] [-fs 0.005] [-queries 5] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/exodb/fieldrepl/internal/exp"
)

func main() {
	sCount := flag.Int("s", 2000, "|S|: objects in the referenced set")
	fList := flag.String("f", "1,5,10", "comma-separated sharing levels")
	fr := flag.Float64("fr", 0.01, "read query selectivity")
	fs := flag.Float64("fs", 0.005, "update query selectivity")
	queries := flag.Int("queries", 5, "queries averaged per measurement")
	seed := flag.Int64("seed", 1, "workload seed")
	space := flag.Bool("space", false, "also report the §4.2 space-overhead table")
	nlevel := flag.Bool("nlevel", false, "also validate the n-level model extension on a 2-level path")
	flag.Parse()

	run := exp.ValidationRun{SCount: *sCount, Fr: *fr, Fsel: *fs, Queries: *queries, Seed: *seed,
		NLevel: *nlevel, Space: *space}
	for _, part := range strings.Split(*fList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "validate: bad sharing level %q\n", part)
			os.Exit(2)
		}
		run.Fs = append(run.Fs, v)
	}
	// Unbuffered: each table prints as soon as its databases are measured.
	if err := exp.WriteValidation(os.Stdout, run); err != nil {
		fmt.Fprintf(os.Stderr, "validate: %v\n", err)
		os.Exit(1)
	}
}
