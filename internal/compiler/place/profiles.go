package place

import (
	"encoding/json"
	"os"
	"sort"
	"strings"

	"repro/internal/p4r/diag"
)

// Profile describes the per-stage resource budgets of a target switch.
// Budgets are per physical match stage; the pipeline model follows RMT
// (ingress and egress consume disjoint stages, so a program's total
// stage demand is ingress + egress).
//
// Profiles are resolved by Find from a built-in registry or loaded from
// a JSON file with the same field names, e.g.:
//
//	{"name": "lab-switch", "stages": 8, "stage_sram_bits": 524288,
//	 "stage_tcam_bits": 65536, "stage_register_bits": 262144,
//	 "stage_tables": 8}
type Profile struct {
	Name string `json:"name"`
	// Stages is the number of physical match stages in the pipeline.
	Stages int `json:"stages"`
	// StageSRAMBits budgets exact-match storage plus action data per
	// stage; StageTCAMBits budgets ternary match storage per stage.
	StageSRAMBits int `json:"stage_sram_bits"`
	StageTCAMBits int `json:"stage_tcam_bits"`
	// StageRegisterBits budgets the stateful register file per stage
	// (register arrays are bound to the single stage that accesses them).
	StageRegisterBits int `json:"stage_register_bits"`
	// StageTables is the number of logical table slots per stage.
	StageTables int `json:"stage_tables"`
}

// Built-in profile names.
const (
	// DefaultTarget is the profile CLIs assume when -target is not given.
	DefaultTarget = "generic-16stage"
	// MiniTarget is a deliberately tight profile used by tests to force
	// placement failures on realistic programs.
	MiniTarget = "mini"
	// Unbounded names the profile an empty target resolves to: it
	// assigns every table the earliest stage its dependencies allow and
	// enforces no budget. It is not in the registry, so Names (and the
	// fig-place sweep) leave it out.
	Unbounded = "none"
)

// registry holds the built-in profiles. generic-16stage approximates a
// mid-size RMT switch; tofino-like scales stage memory toward Tofino's
// published block counts (~120 SRAM blocks x 1K x 112b and 44 TCAM
// blocks x 512 x 44b across 12 stages); mini is intentionally cramped.
var registry = map[string]Profile{
	"generic-16stage": {
		Name:              "generic-16stage",
		Stages:            16,
		StageSRAMBits:     1 << 20, // 1 Mbit exact+action memory per stage
		StageTCAMBits:     1 << 18, // 256 Kbit ternary memory per stage
		StageRegisterBits: 1 << 19, // 512 Kbit stateful register file per stage
		StageTables:       16,
	},
	"tofino-like": {
		Name:              "tofino-like",
		Stages:            12,
		StageSRAMBits:     10 << 20, // ~10 Mbit per stage (1.3 MB SRAM/stage)
		StageTCAMBits:     44 * 512 * 44,
		StageRegisterBits: 2 << 20,
		StageTables:       16,
	},
	"mini": {
		Name:              "mini",
		Stages:            4,
		StageSRAMBits:     1 << 16, // 64 Kbit
		StageTCAMBits:     1 << 14, // 16 Kbit
		StageRegisterBits: 1 << 15, // 32 Kbit
		StageTables:       6,
	},
}

// bounded reports whether the profile enforces budgets. The unbounded
// profile is the one with zero stages; a profile file cannot produce it.
func (p Profile) bounded() bool { return p.Stages > 0 }

// Names returns the built-in profile names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Find resolves a -target argument: "" or "none" for the unbounded
// profile, a built-in profile name, or a path to a JSON profile file
// (anything containing a path separator or a .json suffix). On failure it returns a positioned-at-zero P007
// diagnostic suitable for merging into a compile's diagnostic list.
func Find(target string) (Profile, *diag.Diagnostic) {
	if target == "" || target == Unbounded {
		return Profile{Name: Unbounded}, nil
	}
	if p, ok := registry[target]; ok {
		return p, nil
	}
	if strings.ContainsAny(target, "/\\") || strings.HasSuffix(target, ".json") {
		return loadFile(target)
	}
	return Profile{}, diag.Errorf(diag.PlaceProfile, 0, 0, "unknown target profile %q", target).
		WithHint("built-in profiles: %s; %s for no budgets; or pass a .json profile file", strings.Join(Names(), ", "), Unbounded)
}

// loadFile reads a JSON profile and validates its budgets.
func loadFile(path string) (Profile, *diag.Diagnostic) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, diag.Errorf(diag.PlaceProfile, 0, 0, "target profile %s: %v", path, err)
	}
	var p Profile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Profile{}, diag.Errorf(diag.PlaceProfile, 0, 0, "target profile %s: %v", path, err).
			WithHint("fields: name, stages, stage_sram_bits, stage_tcam_bits, stage_register_bits, stage_tables")
	}
	if p.Name == "" {
		p.Name = path
	}
	if p.Stages <= 0 || p.StageSRAMBits <= 0 || p.StageTCAMBits < 0 ||
		p.StageRegisterBits < 0 || p.StageTables <= 0 {
		return Profile{}, diag.Errorf(diag.PlaceProfile, 0, 0,
			"target profile %s: budgets must be positive (stages=%d sram=%d tcam=%d reg=%d tables=%d)",
			path, p.Stages, p.StageSRAMBits, p.StageTCAMBits, p.StageRegisterBits, p.StageTables)
	}
	return p, nil
}
