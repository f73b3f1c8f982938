package main

import (
	"math"
	"math/bits"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/task"
)

// timedScheduler decorates one core's sim.Scheduler, counting its calls
// and timing one call in timeEvery, so the stopwatch's own cost stays
// small next to calls that take nanoseconds. Timings go into
// power-of-two buckets and are summarised by their median: a call that
// spans a goroutine preemption reads milliseconds and would swamp a
// mean.
// sim.Config.NewScheduler is the one interface a caller can interpose,
// and no package type-asserts a Scheduler, so the decorator is
// transparent to the simulation: the traced run's outputs must match
// the untraced run's byte for byte.
//
// Each core gets its own decorator, and a core's scheduler is only ever
// called from the goroutine running that core's shard, so the counters
// need no synchronisation; they are summed after the run.
type timedScheduler struct {
	inner sim.Scheduler
	calls int64     // every call
	hist  [64]int64 // timed calls by bits.Len64(duration in ns)
}

// timeEvery is the decorator's timing sample period, in calls.
const timeEvery = 64

// timedFactory wraps factory; every decorator it makes is appended to
// *made so the caller can sum them.
func timedFactory(factory func(int) sim.Scheduler, made *[]*timedScheduler) func(int) sim.Scheduler {
	return func(core int) sim.Scheduler {
		ts := &timedScheduler{inner: factory(core)}
		*made = append(*made, ts)
		return ts
	}
}

// start counts a call and starts its stopwatch when it is sampled.
func (s *timedScheduler) start() (clock.Stopwatch, bool) {
	s.calls++
	if s.calls%timeEvery != 0 {
		return clock.Stopwatch{}, false
	}
	return clock.Start(), true
}

func (s *timedScheduler) done(sw clock.Stopwatch, timed bool) {
	if timed {
		s.hist[bits.Len64(uint64(sw.Elapsed()))]++
	}
}

// callStats sums the decorators' call counts and returns the median
// timed call in ns, interpolated within its power-of-two bucket.
func callStats(scheds []*timedScheduler) (calls int64, medianNs float64) {
	var hist [64]int64
	var timed int64
	for _, s := range scheds {
		calls += s.calls
		for b, n := range s.hist {
			hist[b] += n
			timed += n
		}
	}
	half := float64(timed) / 2
	for b, n := range hist {
		if float64(n) < half {
			half -= float64(n)
			continue
		}
		if b == 0 {
			return calls, 0
		}
		lo := math.Ldexp(1, b-1) // bucket b holds [2^(b-1), 2^b) ns
		return calls, lo + lo*half/float64(n)
	}
	return calls, 0
}

func (s *timedScheduler) Attach(m *sim.Machine, coreID int) {
	sw, timed := s.start()
	s.inner.Attach(m, coreID)
	s.done(sw, timed)
}

func (s *timedScheduler) Enqueue(t *task.Task, wakeup bool) bool {
	sw, timed := s.start()
	preempt := s.inner.Enqueue(t, wakeup)
	s.done(sw, timed)
	return preempt
}

func (s *timedScheduler) Dequeue(t *task.Task) {
	sw, timed := s.start()
	s.inner.Dequeue(t)
	s.done(sw, timed)
}

func (s *timedScheduler) PickNext() *task.Task {
	sw, timed := s.start()
	t := s.inner.PickNext()
	s.done(sw, timed)
	return t
}

func (s *timedScheduler) PutPrev(t *task.Task) {
	sw, timed := s.start()
	s.inner.PutPrev(t)
	s.done(sw, timed)
}

func (s *timedScheduler) AccountExec(t *task.Task, d time.Duration) {
	sw, timed := s.start()
	s.inner.AccountExec(t, d)
	s.done(sw, timed)
}

func (s *timedScheduler) Slice(t *task.Task) time.Duration {
	sw, timed := s.start()
	d := s.inner.Slice(t)
	s.done(sw, timed)
	return d
}

func (s *timedScheduler) Yield(t *task.Task) {
	sw, timed := s.start()
	s.inner.Yield(t)
	s.done(sw, timed)
}

func (s *timedScheduler) NrRunnable() int {
	sw, timed := s.start()
	n := s.inner.NrRunnable()
	s.done(sw, timed)
	return n
}

func (s *timedScheduler) WeightedLoad() int64 {
	sw, timed := s.start()
	l := s.inner.WeightedLoad()
	s.done(sw, timed)
	return l
}

func (s *timedScheduler) Queued() []*task.Task {
	sw, timed := s.start()
	q := s.inner.Queued()
	s.done(sw, timed)
	return q
}

func (s *timedScheduler) EachQueued(fn func(t *task.Task) bool) {
	sw, timed := s.start()
	s.inner.EachQueued(fn)
	s.done(sw, timed)
}
