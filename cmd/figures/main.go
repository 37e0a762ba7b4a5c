// Command figures regenerates the paper's evaluation tables and graphs
// (Figures 10-14) from the analytical cost model.
//
// Usage:
//
//	figures [-fig 10|11|12|13|14|all] [-csv] [-steps N]
//
// Graph figures (11, 13) render as ASCII plots by default, or as CSV series
// with -csv for external plotting.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"github.com/exodb/fieldrepl/internal/exp"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 10, 11, 12, 13, 14, or all")
	csv := flag.Bool("csv", false, "emit graph figures as CSV instead of ASCII plots")
	steps := flag.Int("steps", 40, "update-probability steps for graph figures")
	flag.Parse()

	figs := []string{*fig}
	if *fig == "all" {
		figs = exp.Figures
	}
	w := bufio.NewWriter(os.Stdout)
	err := exp.WriteFigures(w, figs, *csv, *steps)
	w.Flush()
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}
}
