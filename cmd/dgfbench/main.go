// Command dgfbench regenerates every table and figure of the paper's
// evaluation (Section 5) plus the ablations of DGFIndex's design choices
// (pre-computation, slice skipping, GFU storage).
//
// Usage:
//
//	dgfbench                       # run everything at the default scale
//	dgfbench -exp fig8,tab3        # selected experiments
//	dgfbench -scale small          # quick pass
//	dgfbench -markdown -o out.md   # EXPERIMENTS.md-style output
//	dgfbench -list                 # list experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/bench"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale    = flag.String("scale", "default", "dataset scale: small, test, default")
		markdown = flag.Bool("markdown", false, "emit Markdown tables instead of text")
		out      = flag.String("o", "", "write output to file instead of stdout")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-20s %-10s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}

	var s bench.Scale
	switch *scale {
	case "small":
		s = bench.SmallScale()
	case "test":
		s = bench.TestScale()
	case "default":
		s = bench.DefaultScale()
	default:
		log.Fatalf("unknown scale %q (small, test, default)", *scale)
	}
	env := bench.NewEnv(s)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	var selected []bench.Experiment
	if *expFlag == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := bench.Get(strings.TrimSpace(id))
			if !ok {
				log.Fatalf("unknown experiment %q; -list shows the ids", id)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		rep, err := e.Run(env)
		if err != nil {
			log.Fatalf("experiment %s: %v", e.ID, err)
		}
		rep.Notef("experiment wall time: %v", time.Since(start).Round(time.Millisecond))
		if *markdown {
			rep.WriteMarkdown(w)
		} else {
			rep.WriteText(w)
		}
	}
}
