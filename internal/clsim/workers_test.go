package clsim

import (
	"errors"
	"fmt"
	"testing"
)

// The Workers option must not change results: work-groups are
// independent, so serial (Workers = 1) and parallel execution produce
// bit-identical output.
func TestWorkersDeterministicLockstep(t *testing.T) {
	in := make([]float64, 64)
	for i := range in {
		in[i] = float64(i) * 0.5
	}
	nd := NDRange{Global: [2]int{64, 1}, Local: [2]int{8, 1}}
	var ref []float64
	for _, workers := range []int{1, 2, 7, 0} {
		ctx := NewContext(testDevice())
		q := NewQueue(ctx)
		q.Workers = workers
		k := &lockstepSum{in: in, out: make([]float64, 8)}
		if err := q.RunLockstep(k, nd); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = k.out
			continue
		}
		for i := range ref {
			if k.out[i] != ref[i] {
				t.Errorf("workers=%d: group %d = %v, want %v", workers, i, k.out[i], ref[i])
			}
		}
	}
}

// The serial path must report kernel errors and stats like the pool.
func TestWorkersSerialErrorsAndStats(t *testing.T) {
	ctx := NewContext(testDevice())
	q := NewQueue(ctx)
	q.Workers = 1
	nd := NDRange{Global: [2]int{8, 1}, Local: [2]int{8, 1}}
	if err := q.RunLockstep(takeLocalPanic{}, nd); !errors.Is(err, ErrLocalMemExceeded) {
		t.Errorf("serial path: want ErrLocalMemExceeded, got %v", err)
	}

	in := make([]float64, 16)
	k := &lockstepSum{in: in, out: make([]float64, 2)}
	nd = NDRange{Global: [2]int{16, 1}, Local: [2]int{8, 1}}
	if err := q.RunLockstep(k, nd); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.WorkGroupsRun != 1+2 || st.KernelLaunches != 2 {
		t.Errorf("serial stats: %+v", st)
	}
}

type groupError struct{ id int }

func (e *groupError) Error() string { return fmt.Sprintf("group %d failed", e.id) }

// mixedFaults fails every group, with errors of different types.
type mixedFaults struct{}

func (mixedFaults) Name() string { return "mixed-faults" }
func (mixedFaults) RunGroup(g *Group) {
	if g.ID(0)%2 == 0 {
		panic(ErrLocalMemExceeded)
	}
	panic(&groupError{g.ID(0)})
}

// Groups failing concurrently with errors of different types must
// surface one of them as the launch error.
func TestWorkersMixedGroupErrors(t *testing.T) {
	q := NewQueue(NewContext(testDevice()))
	q.Workers = 4
	nd := NDRange{Global: [2]int{64, 1}, Local: [2]int{1, 1}}
	var ge *groupError
	if err := q.Run(mixedFaults{}, nd); !errors.Is(err, ErrLocalMemExceeded) && !errors.As(err, &ge) {
		t.Errorf("want a group's error, got %v", err)
	}
}

// Create/release accounting must balance, survive double release, and
// expose leaks as Live > 0.
func TestBufferStatsAccounting(t *testing.T) {
	ctx := NewContext(testDevice())
	b1, err := ctx.CreateBuffer(1024)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ctx.CreateBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	st := ctx.BufferStats()
	if st.Created != 2 || st.Released != 0 || st.Live != 2 || st.LiveBytes != 1088 {
		t.Errorf("after create: %+v", st)
	}
	b1.Release()
	b1.Release() // idempotent: must not double-count
	st = ctx.BufferStats()
	if st.Created != 2 || st.Released != 1 || st.Live != 1 || st.LiveBytes != 64 {
		t.Errorf("after release: %+v", st)
	}
	b2.Release()
	st = ctx.BufferStats()
	if st.Created != st.Released || st.Live != 0 || st.LiveBytes != 0 {
		t.Errorf("after full cleanup: %+v", st)
	}
}
