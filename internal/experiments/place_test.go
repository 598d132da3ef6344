package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/compiler/place"
)

// TestPlacementSweep pins the headline placement claims: every shipped
// program fits every registered profile (the fabric scale claims are
// anchored to hardware-like budgets), utilization is non-trivial on the
// tight mini profile, and the leaf stage-map artifact is produced.
func TestPlacementSweep(t *testing.T) {
	res, err := RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(placePrograms) * len(place.Names())
	if len(res.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(res.Rows), wantRows)
	}
	var miniSRAM int
	for _, r := range res.Rows {
		if !r.Fits || r.Errors != 0 {
			t.Errorf("%s on %s: does not fit (%d errors)", r.Program, r.Profile, r.Errors)
		}
		if r.StagesUsed < 1 || r.StagesUsed > r.Stages {
			t.Errorf("%s on %s: %d stages used of %d", r.Program, r.Profile, r.StagesUsed, r.Stages)
		}
		if r.Profile == place.MiniTarget && r.MaxSRAMPct > miniSRAM {
			miniSRAM = r.MaxSRAMPct
		}
	}
	if miniSRAM == 0 {
		t.Error("mini profile shows zero SRAM utilization; sweep is not measuring anything")
	}
	if !strings.Contains(res.LeafReport, "FITS") || !strings.Contains(res.LeafReport, place.DefaultTarget) {
		t.Errorf("leaf report missing header:\n%s", res.LeafReport)
	}
	if programs := column(t, res.Tables()[0], "program"); !slices.Contains(programs, "fabric/leaf") {
		t.Errorf("program column missing fabric/leaf: %q", programs)
	}
}
