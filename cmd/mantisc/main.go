// Command mantisc is the Mantis compiler CLI: it translates a .p4r file
// into the generated (malleable) P4 program and a summary of the
// reaction plan — the analogue of the paper's Flex/Bison compiler
// emitting a P4 program and C reaction code.
//
// Usage:
//
//	mantisc [-o out.p4] [-plan] [-check] [-Werror] [-target profile] [-report] program.p4r
//
// With -check, mantisc runs the semantic analyzer, which alone decides
// whether the program is valid, then lowering, which cannot fail, and
// the RMT placement pass, and prints every diagnostic without
// generating code. -target selects the switch
// profile the placement pass charges the program against (a built-in
// name like generic-16stage/tofino-like/mini, a JSON profile file, or
// none: assign stages without budgets); -report prints the placement
// stage map with per-stage utilization to stdout.
//
// Both the -check and full compile paths end with a one-line summary
// "path: N errors, M warnings" on stderr, and exit 1 iff N > 0. A usage
// error, such as a -max-init-bits below 1, exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/compiler"
	"repro/internal/compiler/place"
	"repro/internal/p4r/diag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mantisc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write generated P4 to this file (default stdout)")
	showPlan := fs.Bool("plan", true, "print the reaction plan summary to stderr")
	maxInitBits := fs.Int("max-init-bits", 512, "platform limit on init-action parameter bits")
	checkOnly := fs.Bool("check", false, "analyze and place only; report diagnostics, generate nothing")
	werror := fs.Bool("Werror", false, "treat warnings as errors")
	target := fs.String("target", place.DefaultTarget,
		"switch profile for the RMT placement pass: a built-in name, a .json profile file, or \"none\" for no budgets")
	report := fs.Bool("report", false, "print the placement stage map and per-stage utilization to stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mantisc [-o out.p4] [-check] [-Werror] [-target profile] [-report] program.p4r")
		return 2
	}
	if *maxInitBits <= 0 {
		fmt.Fprintf(stderr, "mantisc: -max-init-bits %d: must be positive\n", *maxInitBits)
		return 2
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	opts := compiler.DefaultOptions()
	opts.ProgramName = path
	opts.MaxInitActionBits = *maxInitBits
	opts.Werror = *werror
	opts.Target = *target

	plan, cerr := compiler.CompileSource(string(src), opts)
	// Render every diagnostic: the error side (which may be a structured
	// list) plus warnings that survived a successful compile.
	errs, warns := printDiags(stderr, path, cerr)
	if plan != nil && cerr == nil && plan.Diags != nil {
		for _, d := range plan.Diags.Warnings() {
			fmt.Fprintf(stderr, "%s: %s\n", path, d.Error())
			warns++
		}
	}

	// A placement report is printed even when placement failed — the
	// stage map (with its overflow rows) is how you see why.
	if *report && plan != nil {
		fmt.Fprint(stdout, plan.Placement.Report())
	}

	if cerr == nil && !*checkOnly {
		generated := plan.Prog.Print()
		if *out == "" {
			fmt.Fprint(stdout, generated)
		} else if werr := os.WriteFile(*out, []byte(generated), 0o644); werr != nil {
			fmt.Fprintln(stderr, werr)
			return 2
		}
		if *showPlan {
			printPlan(stderr, plan)
		}
	}

	fmt.Fprintf(stderr, "%s: %d errors, %d warnings\n", path, errs, warns)
	if errs > 0 {
		return 1
	}
	return 0
}

// printDiags renders a compile error, unpacking diagnostic lists so
// each finding gets its own prefixed line, and returns the error and
// warning counts.
func printDiags(stderr io.Writer, path string, err error) (errs, warns int) {
	if err == nil {
		return 0, 0
	}
	if l, ok := err.(*diag.List); ok {
		for _, d := range l.Diags {
			fmt.Fprintf(stderr, "%s: %s\n", path, d.Error())
			if d.Severity == diag.Error {
				errs++
			} else {
				warns++
			}
		}
		return errs, warns
	}
	fmt.Fprintf(stderr, "%s: %v\n", path, err)
	return 1, 0
}

// printPlan writes the reaction-plan summary.
func printPlan(w io.Writer, plan *compiler.Plan) {
	fmt.Fprintf(w, "-- reaction plan --\n")
	fmt.Fprintf(w, "source: %d LoC -> generated P4: %d LoC\n", plan.SourceLines, plan.Prog.LineCount())
	fmt.Fprintf(w, "version bits: vv=%v mv=%v\n", plan.UsesVV, plan.UsesMV)
	for i, it := range plan.InitTables {
		role := "shadowed"
		if i == 0 {
			role = "master"
		}
		fmt.Fprintf(w, "init table %d: %s (%s, %d params)\n", i, it.Table, role, len(it.Params))
	}
	var names []string
	for name := range plan.MblValues {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := plan.MblValues[name]
		fmt.Fprintf(w, "malleable value %s: width %d init %d -> %s\n", name, mv.Width, mv.Init, mv.MetaField)
	}
	names = names[:0]
	for name := range plan.MblFields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mf := plan.MblFields[name]
		fmt.Fprintf(w, "malleable field %s: alts %v selector %s\n", name, mf.Alts, mf.Selector)
	}
	names = names[:0]
	for name := range plan.MblTables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ti := plan.MblTables[name]
		fmt.Fprintf(w, "malleable table %s: %d generated key columns (vv col %d)\n", name, len(ti.Combos[0].Keys), ti.VVCol)
	}
	for _, rxn := range plan.Reactions {
		fmt.Fprintf(w, "reaction %s: %d ing slots, %d egr slots, %d register params, %d malleable params\n",
			rxn.Name, len(rxn.IngSlots), len(rxn.EgrSlots), len(rxn.RegParams), len(rxn.MblParams))
	}
	pl := plan.Placement
	sram, tcam := pl.Bits()
	fmt.Fprintf(w, "placement: profile %s, %d+%d stages, %d tables, %d registers, SRAM %dKb, TCAM %dKb, metadata %db, fits=%v (use -report for the stage map)\n",
		pl.Profile.Name, pl.IngressStages, pl.EgressStages, len(plan.Prog.TableOrder), len(plan.Prog.RegisterOrder),
		sram/1024, tcam/1024, plan.Prog.MetadataBits(), pl.Fits())
}
