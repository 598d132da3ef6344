package rl

import (
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{States: 0, Actions: 2, Alpha: 0.1}); err == nil {
		t.Fatal("zero states accepted")
	}
	if _, err := New(Config{States: 2, Actions: 2, Alpha: 0}); err == nil {
		t.Fatal("zero alpha accepted")
	}
	if _, err := New(Config{States: 2, Actions: 2, Alpha: 0.5, Gamma: 1.5}); err == nil {
		t.Fatal("gamma > 1 accepted")
	}
	if _, err := New(DefaultConfig(4, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMovesTowardTarget(t *testing.T) {
	l, _ := New(Config{States: 2, Actions: 2, Alpha: 0.5, Gamma: 0, Seed: 1})
	l.Update(0, 1, 10, 1)
	if l.q[0][1] != 5 { // 0 + 0.5*(10 - 0)
		t.Fatalf("Q(0,1) = %v", l.q[0][1])
	}
	l.Update(0, 1, 10, 1)
	if l.q[0][1] != 7.5 {
		t.Fatalf("Q(0,1) = %v", l.q[0][1])
	}
}

func TestBestAndGreedy(t *testing.T) {
	l, _ := New(Config{States: 1, Actions: 3, Alpha: 1, Gamma: 0, Epsilon: 0, Seed: 1})
	l.Update(0, 2, 5, 0)
	if l.Best(0) != 2 {
		t.Fatalf("Best = %d", l.Best(0))
	}
	if l.Act(0) != 2 {
		t.Fatal("greedy Act ignored best action")
	}
}

func TestEpsilonDecay(t *testing.T) {
	cfg := DefaultConfig(2, 2)
	cfg.Epsilon = 1.0
	cfg.EpsilonDecay = 0.5
	cfg.MinEpsilon = 0.1
	l, _ := New(cfg)
	for i := 0; i < 10; i++ {
		l.Update(0, 0, 0, 0)
	}
	if l.cfg.Epsilon != 0.1 {
		t.Fatalf("epsilon = %v, want floor 0.1", l.cfg.Epsilon)
	}
}

func TestExplorationHappens(t *testing.T) {
	cfg := DefaultConfig(1, 4)
	cfg.Epsilon = 1.0
	cfg.EpsilonDecay = 1.0
	l, _ := New(cfg)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[l.Act(0)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("pure exploration visited %d/4 actions", len(seen))
	}
}

// TestLearnsSimpleMDP: a 1-state bandit where action 1 pays 1 and
// action 0 pays 0 — the learner must converge to action 1.
func TestLearnsSimpleMDP(t *testing.T) {
	cfg := DefaultConfig(1, 2)
	l, _ := New(cfg)
	for i := 0; i < 500; i++ {
		a := l.Act(0)
		r := 0.0
		if a == 1 {
			r = 1
		}
		l.Update(0, a, r, 0)
	}
	if l.Best(0) != 1 {
		t.Fatalf("did not learn the bandit: Q = [%v %v]", l.q[0][0], l.q[0][1])
	}
}

// TestLearnsChainMDP: states 0..4; action 1 moves right (reward 1 at
// the end), action 0 stays. Discounted lookahead must propagate value
// back so the learner walks right from state 0.
func TestLearnsChainMDP(t *testing.T) {
	cfg := DefaultConfig(5, 2)
	cfg.Epsilon = 0.3
	l, _ := New(cfg)
	rng := rand.New(rand.NewSource(2))
	s := 0
	for i := 0; i < 20000; i++ {
		a := l.Act(s)
		s2, r := s, 0.0
		if a == 1 {
			s2 = s + 1
			if s2 == 4 {
				r = 1
				s2 = 0 // episode restarts
			}
		}
		l.Update(s, a, r, s2)
		s = s2
		if rng.Float64() < 0.01 {
			s = rng.Intn(4)
		}
	}
	for st := 0; st < 4; st++ {
		if l.Best(st) != 1 {
			t.Fatalf("state %d: best = %d, want move-right", st, l.Best(st))
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		l, _ := New(DefaultConfig(3, 3))
		var out []int
		for i := 0; i < 100; i++ {
			a := l.Act(i % 3)
			out = append(out, a)
			l.Update(i%3, a, float64(i%5), (i+1)%3)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic trajectory")
		}
	}
}
