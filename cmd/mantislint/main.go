// Command mantislint runs this repository's custom Go invariant
// checkers (internal/lint): wrapcheck, simclock, journalintent and diagcode.
//
// It runs as a vet tool, and -list names the analyzers:
//
//	go vet -vettool=$(pwd)/mantislint ./...
//	mantislint -list
//
// cmd/go invokes the binary once per package with a single .cfg (JSON)
// argument describing the unit, after querying `-V=full` (version
// fingerprint for the build cache) and `-flags` (supported analyzer
// flags). Findings go to stderr as file:line:col: message (analyzer),
// with a nonzero exit status — the same contract golang.org/x/tools'
// unitchecker implements, hand-rolled here because the module graph is
// hermetic (no external deps).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	args := os.Args[1:]

	// Protocol handshakes from cmd/go come before anything else.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			printVersion()
			return
		case a == "-flags" || a == "--flags":
			// No tool-specific flags: every analyzer always runs.
			fmt.Println("[]")
			return
		case a == "-list" || a == "--list":
			for _, an := range lint.All() {
				fmt.Printf("%-14s %s\n", an.Name, an.Doc)
			}
			return
		}
	}

	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(pwd)/mantislint ./...  |  mantislint -list")
		os.Exit(2)
	}
	os.Exit(runUnit(args[0]))
}

// printVersion emits the `name version ... buildID=` line cmd/go hashes
// into its action cache; fingerprinting the executable itself means a
// rebuilt linter invalidates stale vet results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("mantislint version devel buildID=%x\n", h.Sum(nil))
}

// vetConfig is the subset of cmd/go's vet .cfg schema this tool needs.
type vetConfig struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

// runUnit analyzes one package unit on behalf of `go vet -vettool`.
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mantislint: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mantislint: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	// The driver requires the facts file to exist even though these
	// analyzers export none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("mantislint: no facts\n"), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "mantislint: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	diags, err := analyzeFiles(cfg.GoFiles, cfg.ImportPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mantislint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func analyzeFiles(paths []string, importPath string) ([]lint.Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return lint.RunAll(fset, files, importPath)
}
