package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// withJobs runs f under a temporary jobs setting.
func withJobs(t *testing.T, n int, f func()) {
	t.Helper()
	old := Jobs()
	SetJobs(n)
	defer SetJobs(old)
	f()
}

func TestMapOrderAndValues(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		withJobs(t, jobs, func() {
			got, err := Map(100, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatalf("jobs=%d: %v", jobs, err)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("jobs=%d: got[%d] = %d, want %d", jobs, i, v, i*i)
				}
			}
		})
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(0) = %v, %v", got, err)
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		withJobs(t, jobs, func() {
			wantErr := errors.New("boom 3")
			_, err := Map(10, func(i int) (int, error) {
				if i == 7 {
					return 0, errors.New("boom 7")
				}
				if i == 3 {
					return 0, wantErr
				}
				return i, nil
			})
			if err != wantErr {
				t.Fatalf("jobs=%d: err = %v, want lowest-index error %v", jobs, err, wantErr)
			}
		})
	}
}

func TestMapRespectsJobsCap(t *testing.T) {
	withJobs(t, 3, func() {
		var cur, peak int64
		_, err := Map(64, func(i int) (struct{}, error) {
			n := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			atomic.AddInt64(&cur, -1)
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt64(&peak); got > 3 {
			t.Fatalf("peak concurrency %d exceeds jobs=3", got)
		}
	})
}

func TestSetJobsBounds(t *testing.T) {
	old := Jobs()
	defer SetJobs(old)
	SetJobs(5)
	if Jobs() != 5 {
		t.Fatalf("Jobs() = %d, want 5", Jobs())
	}
	SetJobs(0) // resets to GOMAXPROCS
	if Jobs() < 1 {
		t.Fatalf("Jobs() = %d, want >= 1", Jobs())
	}
}

func TestStreamOrderedEmit(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		withJobs(t, jobs, func() {
			var got []int
			err := Stream(20,
				func(i int) (int, error) { return i * 10, nil },
				func(i, v int) error {
					if v != i*10 {
						return fmt.Errorf("emit(%d, %d)", i, v)
					}
					got = append(got, i)
					return nil
				})
			if err != nil {
				t.Fatalf("jobs=%d: %v", jobs, err)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("jobs=%d: emit order %v", jobs, got)
				}
			}
		})
	}
}

func TestStreamStopsAtFirstError(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		withJobs(t, jobs, func() {
			wantErr := errors.New("unit 2")
			var emitted []int
			err := Stream(6,
				func(i int) (int, error) {
					if i == 2 {
						return 0, wantErr
					}
					return i, nil
				},
				func(i, v int) error { emitted = append(emitted, i); return nil })
			if err != wantErr {
				t.Fatalf("jobs=%d: err = %v, want %v", jobs, err, wantErr)
			}
			for _, i := range emitted {
				if i >= 2 {
					t.Fatalf("jobs=%d: emitted %v past the failing unit", jobs, emitted)
				}
			}
		})
	}
}

func TestStreamEmitError(t *testing.T) {
	withJobs(t, 4, func() {
		wantErr := errors.New("sink full")
		calls := 0
		err := Stream(8,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				calls++
				if i == 1 {
					return wantErr
				}
				return nil
			})
		if err != wantErr {
			t.Fatalf("err = %v, want %v", err, wantErr)
		}
		if calls != 2 {
			t.Fatalf("emit called %d times, want 2 (stops after error)", calls)
		}
	})
}

// TestMapInsideStream is the composition the CLI depends on: whole
// experiments run as Stream units, each fanning its grid through Map.
// This must not deadlock even at jobs=1 (Stream units hold no token).
func TestMapInsideStream(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		withJobs(t, jobs, func() {
			var mu sync.Mutex
			sums := map[int]int{}
			err := Stream(5,
				func(u int) (int, error) {
					vals, err := Map(10, func(i int) (int, error) { return u*100 + i, nil })
					if err != nil {
						return 0, err
					}
					s := 0
					for _, v := range vals {
						s += v
					}
					return s, nil
				},
				func(u, s int) error {
					mu.Lock()
					sums[u] = s
					mu.Unlock()
					return nil
				})
			if err != nil {
				t.Fatalf("jobs=%d: %v", jobs, err)
			}
			for u := 0; u < 5; u++ {
				want := u*1000 + 45
				if sums[u] != want {
					t.Fatalf("jobs=%d: unit %d sum %d, want %d", jobs, u, sums[u], want)
				}
			}
		})
	}
}

// TestDeterministicAcrossJobs asserts the core contract: the result of a
// Map over self-contained units is independent of the jobs setting.
func TestDeterministicAcrossJobs(t *testing.T) {
	grid := func() ([]int, error) {
		return Map(50, func(i int) (int, error) {
			// A little deterministic work with no shared state.
			h := uint64(i) * 0x9e3779b97f4a7c15
			h ^= h >> 31
			return int(h % 1000), nil
		})
	}
	var runs [][]int
	for _, jobs := range []int{1, 8} {
		withJobs(t, jobs, func() {
			got, err := grid()
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, got)
		})
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("jobs=1 and jobs=8 diverge at %d: %d vs %d", i, runs[0][i], runs[1][i])
		}
	}
}

// TestPanickingUnitBecomesIndexedError: a unit that panics — on a worker
// goroutine or inline at jobs=1 — does not take the process down; Map
// and Stream return an error that names the unit and wraps an error
// panic value, and the other units still run.
func TestPanickingUnitBecomesIndexedError(t *testing.T) {
	cause := errors.New("model invariant broken")
	unit := func(ran *atomic.Int64) func(int) (int, error) {
		return func(i int) (int, error) {
			ran.Add(1)
			switch i {
			case 4:
				panic(cause)
			case 6:
				panic("not an error value")
			}
			return i, nil
		}
	}
	for _, jobs := range []int{1, 8} {
		withJobs(t, jobs, func() {
			var ran atomic.Int64
			_, err := Map(10, unit(&ran))
			if err == nil || !errors.Is(err, cause) || !strings.Contains(err.Error(), "unit 4 panicked") {
				t.Fatalf("jobs=%d: Map err = %v, want unit 4's panic wrapping the cause", jobs, err)
			}
			if ran.Load() != 10 {
				t.Fatalf("jobs=%d: Map ran %d of 10 units", jobs, ran.Load())
			}
			ran.Store(0)
			var emitted []int
			err = Stream(10, unit(&ran), func(i, v int) error {
				emitted = append(emitted, v)
				return nil
			})
			if err == nil || !errors.Is(err, cause) || !strings.Contains(err.Error(), "unit 4 panicked") {
				t.Fatalf("jobs=%d: Stream err = %v, want unit 4's panic wrapping the cause", jobs, err)
			}
			if len(emitted) != 4 {
				t.Fatalf("jobs=%d: Stream emitted %v before the failing unit, want 0..3", jobs, emitted)
			}
		})
	}
	_, err := Map(7, func(i int) (int, error) {
		if i == 6 {
			panic("not an error value")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "unit 6 panicked: not an error value") || !strings.Contains(err.Error(), "runner_test.go") {
		t.Fatalf("non-error panic: err = %v, want the value and the stack it came from", err)
	}
}
