package cluster

import (
	"fmt"
	"time"

	"progresscap/internal/trace"
)

// System is the top of the Argo hierarchy (§II): "a system controller
// monitors power across the entire machine and distributes power budgets
// across the jobs". Jobs have priorities; when a high-priority job
// arrives, lower-priority jobs' budgets shrink — the exact scenario the
// paper's motivation sketches for the NRM underneath.
type System struct {
	totalW float64
	jobs   []*SystemJob
}

// SystemJob is one job under the system controller.
type SystemJob struct {
	Name     string
	Priority int // higher = more important
	// MinShareW is the floor the system never budgets below while the
	// job runs (keeps low-priority jobs from starving entirely).
	MinShareW float64
	// StartEpoch delays the job's arrival (its nodes idle until then).
	StartEpoch int

	mgr         *Manager
	budgetTrace *trace.Series
	arrived     bool
	done        bool
}

// NewSystemJob wraps a job manager for system-level scheduling.
func NewSystemJob(name string, priority int, minShareW float64, startEpoch int, mgr *Manager) *SystemJob {
	return &SystemJob{
		Name:        name,
		Priority:    priority,
		MinShareW:   minShareW,
		StartEpoch:  startEpoch,
		mgr:         mgr,
		budgetTrace: trace.NewSeries("system.budget."+name, "W"),
	}
}

// BudgetTrace returns the budgets the system granted this job.
func (j *SystemJob) BudgetTrace() *trace.Series { return j.budgetTrace }

// Manager returns the job's manager (for results after the run).
func (j *SystemJob) Manager() *Manager { return j.mgr }

// NewSystem assembles a system controller over the given machine power
// envelope.
func NewSystem(totalW float64, jobs ...*SystemJob) (*System, error) {
	if totalW <= 0 {
		return nil, fmt.Errorf("cluster: system power %v invalid", totalW)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: system has no jobs")
	}
	seen := map[string]bool{}
	var minSum float64
	for _, j := range jobs {
		if seen[j.Name] {
			return nil, fmt.Errorf("cluster: duplicate job %q", j.Name)
		}
		seen[j.Name] = true
		minSum += j.MinShareW
	}
	if minSum > totalW {
		return nil, fmt.Errorf("cluster: job floors (%v W) exceed the machine envelope (%v W)", minSum, totalW)
	}
	return &System{totalW: totalW, jobs: jobs}, nil
}

// divide distributes the machine envelope across the active jobs:
// every active job gets its floor, and the remainder is split in
// proportion to priority.
func (s *System) divide(epoch int) map[*SystemJob]float64 {
	out := map[*SystemJob]float64{}
	var active []*SystemJob
	var prioSum float64
	remaining := s.totalW
	for _, j := range s.jobs {
		if j.done || epoch < j.StartEpoch {
			continue
		}
		active = append(active, j)
		prioSum += float64(j.Priority)
		remaining -= j.MinShareW
	}
	if len(active) == 0 {
		return out
	}
	if remaining < 0 {
		remaining = 0
	}
	for _, j := range active {
		share := j.MinShareW
		if prioSum > 0 {
			share += remaining * float64(j.Priority) / prioSum
		} else {
			share += remaining / float64(len(active))
		}
		out[j] = share
	}
	return out
}

// Run steps the whole machine epoch by epoch until every job finishes or
// maxDur elapses, and returns per-job results keyed by job name.
func (s *System) Run(maxDur time.Duration) (map[string]*Result, error) {
	epochs := int(maxDur / Epoch)
	for epoch := 0; epoch < epochs; epoch++ {
		budgets := s.divide(epoch)
		if len(budgets) == 0 && s.allDone() {
			break
		}
		for _, j := range s.jobs {
			if j.done || epoch < j.StartEpoch {
				continue
			}
			j.arrived = true
			b := budgets[j]
			// Stamped at the epoch's end instant, like the job manager's
			// own per-epoch series.
			j.budgetTrace.Add(time.Duration(epoch+1)*Epoch, b)
			j.mgr.SetBudgetOverride(b)
			done, err := j.mgr.Step()
			if err != nil {
				return nil, fmt.Errorf("cluster: system stepping job %s: %w", j.Name, err)
			}
			if done {
				j.done = true
			}
		}
	}
	out := map[string]*Result{}
	for _, j := range s.jobs {
		if !j.arrived {
			continue
		}
		res, err := j.mgr.Finish()
		if err != nil {
			return nil, fmt.Errorf("cluster: finishing job %s: %w", j.Name, err)
		}
		out[j.Name] = res
	}
	return out, nil
}

func (s *System) allDone() bool {
	for _, j := range s.jobs {
		if !j.done {
			return false
		}
	}
	return true
}
