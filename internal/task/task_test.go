package task

import (
	"repro/internal/cpuset"
	"testing"
	"time"
)

// The weight table matches the kernel anchors: nice 0 = 1024, and each
// step changes the share by ~25%.
func TestNiceWeightTable(t *testing.T) {
	if w := NiceWeight(0); w != 1024 {
		t.Fatalf("NiceWeight(0) = %d", w)
	}
	if w := NiceWeight(-20); w != 88761 {
		t.Errorf("NiceWeight(-20) = %d", w)
	}
	if w := NiceWeight(19); w != 15 {
		t.Errorf("NiceWeight(19) = %d", w)
	}
	// Monotone decreasing.
	for n := -20; n < 19; n++ {
		if NiceWeight(n) <= NiceWeight(n+1) {
			t.Errorf("weight not decreasing at nice %d", n)
		}
	}
	// ~1.25x ratio per step in the middle of the table.
	for n := -5; n < 5; n++ {
		r := float64(NiceWeight(n)) / float64(NiceWeight(n+1))
		if r < 1.15 || r > 1.35 {
			t.Errorf("weight ratio at nice %d = %.3f, want ≈1.25", n, r)
		}
	}
	// Clamping.
	if NiceWeight(-100) != NiceWeight(-20) || NiceWeight(100) != NiceWeight(19) {
		t.Error("clamping broken")
	}
}

func TestSpeed(t *testing.T) {
	if s := Speed(50*time.Millisecond, 100*time.Millisecond); s != 0.5 {
		t.Errorf("Speed = %v, want 0.5", s)
	}
	if s := Speed(time.Second, 0); s != 0 {
		t.Errorf("Speed with zero wall = %v, want 0", s)
	}
	if s := Speed(0, time.Second); s != 0 {
		t.Errorf("Speed with zero exec = %v, want 0", s)
	}
}

func TestStateString(t *testing.T) {
	for _, c := range []struct {
		st   State
		want string
	}{
		{New, "new"}, {Runnable, "runnable"}, {Running, "running"},
		{Sleeping, "sleeping"}, {Blocked, "blocked"}, {Done, "done"},
	} {
		if c.st.String() != c.want {
			t.Errorf("%d.String() = %q", c.st, c.st.String())
		}
	}
	if State(99).String() != "invalid" {
		t.Error("unknown state not invalid")
	}
}

func TestWaitPolicyString(t *testing.T) {
	for _, c := range []struct {
		p    WaitPolicy
		want string
	}{
		{WaitSpin, "spin"}, {WaitYield, "yield"},
		{WaitPollSleep, "poll-sleep"}, {WaitBlock, "block"},
		{WaitSpinThenBlock, "spin-then-block"},
	} {
		if c.p.String() != c.want {
			t.Errorf("%d.String() = %q", c.p, c.p.String())
		}
	}
}

func TestSeqProgram(t *testing.T) {
	p := &Seq{Actions: []Action{Compute(1), Sleep(2)}}
	if a := p.Next(nil, 0); a.Kind != ActCompute || a.Work != 1 {
		t.Fatalf("first action = %+v, want Compute(1)", a)
	}
	if a := p.Next(nil, 0); a.Kind != ActSleep || a.D != 2 {
		t.Fatalf("second action = %+v, want Sleep(2)", a)
	}
	if p.Next(nil, 0).Kind != ActExit {
		t.Fatal("exhausted Seq did not Exit")
	}
	if p.Next(nil, 0).Kind != ActExit {
		t.Fatal("Exit not sticky")
	}
}

func TestLoopProgram(t *testing.T) {
	calls := 0
	p := &Loop{
		Iterations: 3,
		Body: func(iter int) []Action {
			calls++
			if iter != calls-1 {
				t.Errorf("body iter = %d, want %d", iter, calls-1)
			}
			return []Action{Compute(1), Compute(2)}
		},
	}
	var seq []Action
	for {
		a := p.Next(nil, 0)
		if a.Kind == ActExit {
			break
		}
		seq = append(seq, a)
		if len(seq) > 100 {
			t.Fatal("Loop does not terminate")
		}
	}
	if len(seq) != 6 || calls != 3 {
		t.Errorf("got %d actions from %d body calls, want 6 from 3", len(seq), calls)
	}
}

// A Loop body may return an empty slice; the loop must skip it rather
// than return nothing.
func TestLoopEmptyBody(t *testing.T) {
	p := &Loop{
		Iterations: 2,
		Body: func(iter int) []Action {
			if iter == 0 {
				return nil
			}
			return []Action{Compute(5)}
		},
	}
	if p.Next(nil, 0).Kind != ActCompute {
		t.Error("empty body iteration not skipped")
	}
	if p.Next(nil, 0).Kind != ActExit {
		t.Error("loop did not exit after iterations")
	}
}

func TestComputeForever(t *testing.T) {
	p := &ComputeForever{Chunk: 7}
	for i := 0; i < 10; i++ {
		if a := p.Next(nil, 0); a.Kind != ActCompute || a.Work != 7 {
			t.Fatalf("action %d = %+v", i, a)
		}
	}
	d := &ComputeForever{}
	if a := d.Next(nil, 0); a.Kind != ActCompute || a.Work <= 0 {
		t.Error("default chunk not positive")
	}
}

// Each constructor sets its kind and only the fields that kind reads,
// and the zero Action matches no kind, so a program that forgets to
// build its action fails loudly in the machine instead of exiting.
func TestActionConstructors(t *testing.T) {
	var c Cond = nopCond{}
	for _, tc := range []struct {
		got, want Action
	}{
		{Compute(3), Action{Kind: ActCompute, Work: 3}},
		{Sleep(4), Action{Kind: ActSleep, D: 4}},
		{WaitFor(c, WaitSpinThenBlock, 5), Action{Kind: ActWait, C: c, Policy: WaitSpinThenBlock, D: 5}},
		{Exit(), Action{Kind: ActExit}},
	} {
		if tc.got != tc.want {
			t.Errorf("got %+v, want %+v", tc.got, tc.want)
		}
	}
	switch (Action{}).Kind {
	case ActCompute, ActSleep, ActWait, ActExit:
		t.Error("the zero Action has a valid kind")
	}
}

type nopCond struct{}

func (nopCond) Arrive(*Task, Waker) bool { return true }

func TestTaskPredicates(t *testing.T) {
	tk := &Task{State: Running}
	if !tk.Runnable() {
		t.Error("running task not runnable")
	}
	tk.State = Blocked
	if tk.Runnable() {
		t.Error("blocked task runnable")
	}
	tk.Affinity = cpuset.Of(5)
	if !tk.Pinned() {
		t.Error("single-core affinity not pinned")
	}
	tk.Affinity = tk.Affinity.Add(6)
	if tk.Pinned() {
		t.Error("two-core affinity pinned")
	}
}
