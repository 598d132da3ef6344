// Package rl implements tabular off-policy Q-learning with an ε-greedy
// behaviour policy — the TD control algorithm (Sutton & Barto) that use
// case #4 of the paper runs inside a Mantis reaction to tune the DCTCP
// ECN marking threshold.
package rl

import (
	"fmt"
	"math/rand"
)

// Config parameterizes the learner.
type Config struct {
	// States and Actions size the Q table.
	States  int
	Actions int
	// Alpha is the learning rate, Gamma the discount factor.
	Alpha float64
	Gamma float64
	// Epsilon is the exploration probability; it decays by EpsilonDecay
	// (multiplicative) after each update, to a floor of MinEpsilon.
	Epsilon      float64
	EpsilonDecay float64
	MinEpsilon   float64
	Seed         int64
}

// DefaultConfig returns common hyperparameters.
func DefaultConfig(states, actions int) Config {
	return Config{
		States: states, Actions: actions,
		Alpha: 0.2, Gamma: 0.9,
		Epsilon: 0.3, EpsilonDecay: 0.999, MinEpsilon: 0.02,
		Seed: 1,
	}
}

// QLearner is a tabular Q-learning agent.
type QLearner struct {
	cfg Config
	q   [][]float64
	rng *rand.Rand
	// Updates counts TD updates applied.
	Updates uint64
}

// New builds a learner with a zero-initialized Q table.
func New(cfg Config) (*QLearner, error) {
	if cfg.States <= 0 || cfg.Actions <= 0 {
		return nil, fmt.Errorf("rl: need positive state/action counts, got %d/%d", cfg.States, cfg.Actions)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("rl: alpha %v out of (0,1]", cfg.Alpha)
	}
	if cfg.Gamma < 0 || cfg.Gamma > 1 {
		return nil, fmt.Errorf("rl: gamma %v out of [0,1]", cfg.Gamma)
	}
	q := make([][]float64, cfg.States)
	for i := range q {
		q[i] = make([]float64, cfg.Actions)
	}
	return &QLearner{cfg: cfg, q: q, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Best returns the greedy action for a state (ties break toward the
// lowest index, deterministically).
func (l *QLearner) Best(state int) int {
	best, bestV := 0, l.q[state][0]
	for a := 1; a < l.cfg.Actions; a++ {
		if l.q[state][a] > bestV {
			best, bestV = a, l.q[state][a]
		}
	}
	return best
}

// Act picks an action ε-greedily.
func (l *QLearner) Act(state int) int {
	if l.rng.Float64() < l.cfg.Epsilon {
		return l.rng.Intn(l.cfg.Actions)
	}
	return l.Best(state)
}

// Update applies one TD(0) control update for the transition
// (s, a, r, s') and decays ε.
func (l *QLearner) Update(s, a int, r float64, s2 int) {
	maxNext := l.q[s2][l.Best(s2)]
	l.q[s][a] += l.cfg.Alpha * (r + l.cfg.Gamma*maxNext - l.q[s][a])
	l.Updates++
	if l.cfg.Epsilon > l.cfg.MinEpsilon {
		l.cfg.Epsilon *= l.cfg.EpsilonDecay
		if l.cfg.Epsilon < l.cfg.MinEpsilon {
			l.cfg.Epsilon = l.cfg.MinEpsilon
		}
	}
}
