// Command skipperc is the SKiPPER compiler front end: it parses,
// type-checks and skeleton-expands a specification, maps it onto a target
// architecture, and prints any of the intermediate artifacts — inferred
// types, the process graph (DOT), the placement summary and the m4-style
// macro-code of the distributed executive.
//
// Extern functions are stubbed automatically from their declared
// signatures, so any well-formed specification compiles without the host
// application (use skipper-run to execute the built-in applications).
//
// Usage:
//
//	skipperc [-arch ring:8] [-strategy structured|listsched]
//	         [-types] [-dot] [-macro] [-summary] [file.skl]
//
// With no file argument the source is read from stdin. With no output
// flags, -types and -summary are implied.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"skipper"
)

func main() {
	archFlag := flag.String("arch", "ring:8", "target architecture: ring:N, chain:N, star:N, full:N, hypercube:D, grid:WxH, torus:WxH")
	strategy := flag.String("strategy", "structured", "distribution strategy: structured or listsched")
	showTypes := flag.Bool("types", false, "print inferred types of top-level bindings")
	showDOT := flag.Bool("dot", false, "print the process graph in Graphviz format")
	showMacro := flag.Bool("macro", false, "print the executive macro-code")
	showSummary := flag.Bool("summary", false, "print the process placement")
	outdir := flag.String("outdir", "", "write graph.dot and per-processor macro-code files to this directory")
	flag.Parse()

	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if !*showTypes && !*showDOT && !*showMacro && !*showSummary {
		*showTypes, *showSummary = true, true
	}

	reg, err := skipper.StubRegistry(src)
	if err != nil {
		fatal(err)
	}
	prog, err := skipper.Compile(src, reg)
	if err != nil {
		fatal(err)
	}
	if *showTypes {
		fmt.Println("-- types")
		for _, name := range prog.Types.Order {
			ty, _ := prog.TypeOf(name)
			fmt.Printf("val %s : %s\n", name, ty)
		}
	}
	if *showDOT {
		fmt.Print(prog.DOT("skipper"))
	}

	if *showMacro || *showSummary {
		a, err := skipper.ParseArch(*archFlag)
		if err != nil {
			fatal(err)
		}
		strat := skipper.Structured
		if *strategy == "listsched" {
			strat = skipper.ListSched
		} else if *strategy != "structured" {
			fatal(fmt.Errorf("unknown strategy %q", *strategy))
		}
		dep, err := prog.MapOnto(a, strat)
		if err != nil {
			fatal(err)
		}
		if *showSummary {
			fmt.Println("-- placement on " + a.Name)
			fmt.Print(dep.Summary())
		}
		if *showMacro {
			fmt.Print(dep.MacroCode())
		}
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fatal(err)
			}
			artifacts := dep.Schedule.MacroCodeFiles()
			artifacts["graph.dot"] = prog.DOT("skipper")
			manifest, err := dep.Schedule.ManifestJSON()
			if err != nil {
				fatal(err)
			}
			artifacts["manifest.json"] = string(manifest)
			for name, content := range artifacts {
				if err := os.WriteFile(filepath.Join(*outdir, name), []byte(content), 0o644); err != nil {
					fatal(err)
				}
			}
			fmt.Fprintf(os.Stderr, "skipperc: wrote %d files to %s\n", len(artifacts), *outdir)
		}
	}
}

func readSource(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skipperc:", err)
	os.Exit(1)
}
