package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cpuset"
	"repro/internal/task"
	"repro/internal/topo"
)

// nopSched is a Scheduler that queues nothing: the tests below install
// running tasks on cores by hand.
type nopSched struct{}

func (nopSched) Attach(*Machine, int)                  {}
func (nopSched) Enqueue(*task.Task, bool) bool         { return false }
func (nopSched) Dequeue(*task.Task)                    {}
func (nopSched) PickNext() *task.Task                  { return nil }
func (nopSched) PutPrev(*task.Task)                    {}
func (nopSched) AccountExec(*task.Task, time.Duration) {}
func (nopSched) Slice(*task.Task) time.Duration        { return time.Millisecond }
func (nopSched) Yield(*task.Task)                      {}
func (nopSched) NrRunnable() int                       { return 1 }
func (nopSched) WeightedLoad() int64                   { return 0 }
func (nopSched) Queued() []*task.Task                  { return nil }
func (nopSched) EachQueued(func(*task.Task) bool)      {}

func newNopMachine(tp *topo.Topology) *Machine {
	return New(tp, Config{Seed: 1, NewScheduler: func(int) Scheduler { return nopSched{} }})
}

// An occupancy change settles and re-arms all 63 other cores of a
// 64-core domain. Summing the domain demand per mate cost 2×63 sums;
// the pass memo brings it to one sum per pass.
func TestDemandSumsPerOccupancyChange(t *testing.T) {
	m := newNopMachine(topo.Fabric(1, 64))
	for _, c := range m.Cores {
		tk := m.NewTask("mem", &task.Seq{})
		tk.MemIntensity = 0.4
		tk.Cur = task.Exec{Kind: task.ExecCompute, WorkLeft: 1e9}
		c.cur = tk
		c.sliceEnd = math.MaxInt64
	}
	for _, core := range []int{0, 31, 63} {
		// Let every stint grow, so the settle pass has work on each mate.
		m.now += int64(100 * time.Microsecond)
		c := m.Cores[core]
		before := m.Stats.DemandSums
		m.settleShared(c)
		dm := newDemandMemo(c)
		m.rearmShared(c, &dm)
		if got := m.Stats.DemandSums - before; got > 2 {
			t.Errorf("core %d: %d demand sums for one settle+re-arm pass, want <= 2", core, got)
		}
		for _, o := range m.Cores {
			if o != c && o.runStart != m.now {
				t.Fatalf("core %d not settled by core %d's pass", o.id, core)
			}
		}
	}
}

// straddledNehalem is the Nehalem with its memory domains cut across
// the SMT pairs (first contexts in one domain, second contexts in the
// other), so a core's SMT sibling is a share-mate from another domain.
func straddledNehalem() *topo.Topology {
	tp := topo.Nehalem()
	tp.MemDomains = []topo.MemDomain{
		{Cores: cpuset.Range(0, 8), Capacity: 1.5},
		{Cores: cpuset.Range(8, 16), Capacity: 1.5},
	}
	return tp
}

// The memoised demand equals a fresh sum bit for bit, whatever the
// occupancy: every core of every domain reads the memo of one pass,
// including cores outside the memo's domain and empty cores asked
// about a task that is not yet running (the self stand-in case).
func TestDemandMemoMatchesFreshSum(t *testing.T) {
	tops := []struct {
		name string
		tp   func() *topo.Topology
	}{
		{"nehalem", topo.Nehalem},
		{"straddled", straddledNehalem},
		{"fabric2x8", func() *topo.Topology { return topo.Fabric(2, 8) }},
	}
	kinds := []task.ExecKind{task.ExecCompute, task.ExecCompute, task.ExecSpin, task.ExecYieldWait, task.ExecPollWait}
	for _, tc := range tops {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			m := newNopMachine(tc.tp())
			n := len(m.Cores)
			// One task per core to run there, one spare per core for the
			// self case.
			var tasks []*task.Task
			for i := 0; i < 2*n; i++ {
				tasks = append(tasks, m.NewTask("t", &task.Seq{}))
			}
			for trial := 0; trial < 300; trial++ {
				for _, tk := range tasks {
					tk.Cur.Kind = kinds[rng.Intn(len(kinds))]
					tk.MemIntensity = 0
					if rng.Intn(4) > 0 {
						tk.MemIntensity = rng.Float64()
					}
				}
				for i, c := range m.Cores {
					c.cur = nil
					if rng.Intn(4) > 0 {
						c.cur = tasks[i]
					}
				}
				src := m.Cores[rng.Intn(n)]
				dm := newDemandMemo(src)
				for _, i := range rng.Perm(n) {
					c := m.Cores[i]
					tk := c.cur
					if tk == nil {
						tk = tasks[n+i]
					}
					memo, fresh := dm.demand(c, tk), c.memDemand(tk)
					if math.Float64bits(memo) != math.Float64bits(fresh) {
						t.Fatalf("trial %d core %d (pass from %d): memo demand %v, fresh %v", trial, i, src.id, memo, fresh)
					}
					memo, fresh = c.effSpeed(tk, &dm), c.effSpeed(tk, nil)
					if math.Float64bits(memo) != math.Float64bits(fresh) {
						t.Fatalf("trial %d core %d (pass from %d): memo speed %v, fresh %v", trial, i, src.id, memo, fresh)
					}
				}
			}
		})
	}
}
