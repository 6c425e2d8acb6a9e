package cluster

import (
	"testing"

	"progresscap/internal/simtime"
)

// The two watchdogs the shared watch replaced, kept verbatim as
// reference implementations. Only their inputs are stubbed: the direct
// Manager's read the node's monitor sample count and engine done flag,
// the leased replica's read its telemetry maps over the node list.

type refManager struct{ FailureEpochs, ProbationEpochs int }

type refEngine struct {
	samples int
	done    bool
}

func (e *refEngine) Monitor() *refEngine { return e }
func (e *refEngine) Samples() []struct{} { return make([]struct{}, e.samples) }
func (e *refEngine) Done() bool          { return e.done }

type refNode struct {
	eng *refEngine

	failed         bool
	lastSamples    int
	stagnantEpochs int
	freshEpochs    int
}

// watchdog is Manager.watchdog as it stood before the merge.
func (m *refManager) watchdog(n *refNode) {
	count := len(n.eng.Monitor().Samples())
	fresh := count > n.lastSamples
	n.lastSamples = count
	if n.eng.Done() {
		n.failed = false
		n.stagnantEpochs = 0
		n.freshEpochs = 0
		return
	}
	if !n.failed {
		if fresh {
			n.stagnantEpochs = 0
			return
		}
		n.stagnantEpochs++
		if n.stagnantEpochs >= m.FailureEpochs {
			n.failed = true
			n.freshEpochs = 0
		}
		return
	}
	if !fresh {
		n.freshEpochs = 0 // probation restarts on any silent epoch
		return
	}
	n.freshEpochs++
	if n.freshEpochs >= m.ProbationEpochs {
		n.failed = false
		n.stagnantEpochs = 0
		n.freshEpochs = 0
	}
}

type refLeasedConfig struct{ FailureEpochs, ProbationEpochs int }

type refLeasedCluster struct {
	cfg   refLeasedConfig
	nodes []struct{ name string }
}

type refLeasedManager struct {
	heard  map[string]bool
	done   map[string]bool
	silent map[string]int
	fresh  map[string]int
	fenced map[string]bool
}

// watchdog is LeasedCluster.watchdog as it stood before the merge.
func (lc *refLeasedCluster) watchdog(m *refLeasedManager) {
	for _, n := range lc.nodes {
		name := n.name
		if m.done[name] {
			m.fenced[name] = false
			m.silent[name], m.fresh[name] = 0, 0
			continue
		}
		if m.heard[name] {
			m.silent[name] = 0
			m.fresh[name]++
		} else {
			m.silent[name]++
			m.fresh[name] = 0
		}
		if !m.fenced[name] && m.silent[name] >= lc.cfg.FailureEpochs {
			m.fenced[name] = true
		}
		if m.fenced[name] && m.fresh[name] >= lc.cfg.ProbationEpochs {
			m.fenced[name] = false
		}
	}
}

// TestWatchMatchesBothWatchdogs drives the shared watch and both
// reference watchdogs with seeded random (heard, done) sequences and
// requires the same fenced bit from all three after every epoch. The
// sequences mix long silent and long chatty stretches (per-sequence
// heard probabilities from 5% to 95%) with rare done epochs, including
// a node that reports done and later resumes.
func TestWatchMatchesBothWatchdogs(t *testing.T) {
	const (
		sequences = 400
		epochs    = 200
	)
	rng := simtime.NewRNG(0x5eed)
	mgr := &refManager{FailureEpochs: failureEpochs, ProbationEpochs: probationEpochs}
	lc := &refLeasedCluster{
		cfg:   refLeasedConfig{FailureEpochs: failureEpochs, ProbationEpochs: probationEpochs},
		nodes: []struct{ name string }{{"n"}},
	}
	var fences, unfences int
	for s := 0; s < sequences; s++ {
		pHeard := 0.05 + 0.9*rng.Float64()
		pDone := 0.02 * rng.Float64()
		var w watch
		node := &refNode{eng: &refEngine{}}
		lm := &refLeasedManager{heard: map[string]bool{}, done: map[string]bool{},
			silent: map[string]int{}, fresh: map[string]int{}, fenced: map[string]bool{}}
		prev := false
		for e := 0; e < epochs; e++ {
			heard := rng.Float64() < pHeard
			done := rng.Float64() < pDone

			w.observe(heard, done)

			if heard {
				node.eng.samples++
			}
			node.eng.done = done
			mgr.watchdog(node)

			lm.heard["n"], lm.done["n"] = heard, done
			lc.watchdog(lm)

			if w.fenced != node.failed || w.fenced != lm.fenced["n"] {
				t.Fatalf("sequence %d epoch %d (heard=%t done=%t): watch fenced=%t, Manager failed=%t, leased fenced=%t",
					s, e, heard, done, w.fenced, node.failed, lm.fenced["n"])
			}
			if w.fenced && !prev {
				fences++
			}
			if !w.fenced && prev {
				unfences++
			}
			prev = w.fenced
		}
	}
	// The sequences must actually exercise both transitions.
	if fences < 100 || unfences < 100 {
		t.Fatalf("only %d fences and %d unfences across %d sequences", fences, unfences, sequences)
	}
}
