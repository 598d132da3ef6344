package core_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/usecases"
)

// TestSpecUseCases runs each use case's P4R body, fault-free, on its
// usecases.Build* rig under the traffic its Run* drives, with the
// sequential spec and the snapshot rules attached: every commit leaves
// the tables, malleables and delivered events where the body's
// sequential runs put them, nothing is delivered twice, and every poll
// and every versioned write addresses the copy packets do not use.
func TestSpecUseCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (*core.Spec, error)
	}{
		{"dos", func(t *testing.T) (*core.Spec, error) {
			rig, err := usecases.BuildDos(1, usecases.DefaultDosAddressing().Routes(25))
			if err != nil {
				return nil, err
			}
			spec := core.AttachSpec(t, rig.Agent, rig.Sw)
			core.AttachRules(t, rig.Agent)
			res, err := rig.RunFig15(usecases.DefaultFig15Config())
			if err == nil && res.BlockedAt == 0 {
				err = errors.New("the attacker was never blocked")
			}
			return spec, err
		}},
		{"gray", func(t *testing.T) (*core.Spec, error) {
			rig, err := usecases.BuildGray(1, 30*time.Microsecond, 0.5)
			if err != nil {
				return nil, err
			}
			spec := core.AttachSpec(t, rig.Agent, rig.Sw)
			core.AttachRules(t, rig.Agent)
			res, err := rig.RunFig16(3, 500*time.Microsecond)
			if err == nil && !res.Detected {
				err = errors.New("the gray failure was never detected")
			}
			return spec, err
		}},
		{"polar", func(t *testing.T) (*core.Spec, error) {
			rig, err := usecases.BuildPolar(1, 50*time.Microsecond)
			if err != nil {
				return nil, err
			}
			spec := core.AttachSpec(t, rig.Agent, rig.Sw)
			core.AttachRules(t, rig.Agent)
			res, err := rig.RunPolar(3 * time.Millisecond)
			if err == nil && !res.Shifted {
				err = errors.New("the hash was never shifted")
			}
			return spec, err
		}},
		{"rl", func(t *testing.T) (*core.Spec, error) {
			rig, err := usecases.BuildRL(1, 50*time.Microsecond, 1e9)
			if err != nil {
				return nil, err
			}
			spec := core.AttachSpec(t, rig.Agent, rig.Sw)
			core.AttachRules(t, rig.Agent)
			_, err = rig.RunRL(20 * time.Millisecond)
			return spec, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := tc.run(t)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Dups != 0 {
				t.Errorf("a fault-free run delivered %d events twice", spec.Dups)
			}
		})
	}
}
