package parallel

import (
	"sync/atomic"
	"testing"
)

func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got := Map(workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 257
	var counts [n]int32
	ForEach(8, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	ForEach(4, 1, func(i int) {
		if i != 0 {
			t.Fatalf("i = %d", i)
		}
		ran = true
	})
	if !ran {
		t.Fatal("fn not called for n=1")
	}
}

func TestSequentialFallbackIsInCallerGoroutine(t *testing.T) {
	// workers=1 must not spawn goroutines: fn can then use non-atomic
	// state, which the determinism tests of the experiment layer rely on.
	order := make([]int, 0, 10)
	ForEach(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", DefaultWorkers())
	}
}
