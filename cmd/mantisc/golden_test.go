package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/usecases"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// TestPlanGolden pins what mantisc prints about a compiled program: the
// -plan summary (init tables and their roles, malleable declarations,
// each malleable table's generated key columns and vv column) and the
// generated P4 written by -o, for fig1, every benchmark program and the
// one shipped use case with a malleable field.
func TestPlanGolden(t *testing.T) {
	inputs := map[string]string{"fig1": fig1Path}
	benches, err := filepath.Glob("../../bench/programs/*.p4r")
	if err != nil || len(benches) == 0 {
		t.Fatalf("no benchmark programs: %v", err)
	}
	for _, p := range benches {
		inputs[strings.TrimSuffix(filepath.Base(p), ".p4r")] = p
	}
	inputs["hashpolar"] = writeProgram(t, usecases.HashPolarP4R)

	for name, path := range inputs {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.p4")
			code, _, stderr := runCLI(t, "-o", out, path)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			gen, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			// The program's path is printed in both; pin the input's name.
			got := strings.ReplaceAll(stderr+"-- generated P4 --\n"+string(gen), path, name+".p4r")
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (go test ./cmd/mantisc -update writes it)", err)
			}
			if got != string(want) {
				t.Errorf("mantisc output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}
