//go:build go1.23

package mpi

// iter.Pull is newer than go.mod's go line; the release constraint above is
// what lets this one file use it (a 1.22 toolchain does not see the file).

import (
	"container/heap"
	"fmt"
	"iter"
	"math/rand"
	"sync"
	"testing"
)

// batonHeap orders ranks by (virtual time, rank): ROADMAP 1 Stage A's run
// queue, whose minimum is the one rank allowed to run.
type batonHeap []struct {
	t    int64
	rank int
}

func (h batonHeap) Len() int { return len(h) }
func (h batonHeap) Less(i, j int) bool {
	return h[i].t < h[j].t || h[i].t == h[j].t && h[i].rank < h[j].rank
}
func (h batonHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (*batonHeap) Push(any)       { panic("fixed population") }
func (*batonHeap) Pop() any       { panic("fixed population") }

// BenchmarkRankHandoff sizes Stage A's baton before it is built ("measure
// first"): every rank is parked but the heap minimum; a yield advances the
// holder's clock by a send overhead plus seeded jitter, re-sorts it, and
// hands the baton to the new minimum — always another rank, since every
// step exceeds the jitter's spread. "goroutines" parks ranks on channels and
// hands over rank to rank; "iter.Pull" makes each rank a coroutine that a
// scheduler loop resumes. Run with -cpu 1,2; results/pr21.md has the table.
func BenchmarkRankHandoff(b *testing.B) {
	for _, ranks := range []int{64, 512, 4096} {
		setup := func() (batonHeap, func() int64) {
			h := make(batonHeap, ranks)
			for r := range h {
				h[r].rank = r
			}
			rng := rand.New(rand.NewSource(1))
			return h, func() int64 { return int64(sendOverhead) + rng.Int63n(200) }
		}
		b.Run(fmt.Sprintf("goroutines/ranks=%d", ranks), func(b *testing.B) {
			h, step := setup()
			wake := make([]chan struct{}, ranks)
			left := b.N
			var wg sync.WaitGroup
			for r := range wake {
				wake[r] = make(chan struct{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range wake[r] { // parked until handed the baton
						for h[0].rank == r {
							if left == 0 {
								for _, w := range wake {
									close(w)
								}
								return
							}
							left--
							h[0].t += step()
							heap.Fix(&h, 0)
						}
						wake[h[0].rank] <- struct{}{}
					}
				}()
			}
			b.ResetTimer()
			wake[0] <- struct{}{}
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/yield")
		})
		b.Run(fmt.Sprintf("iter.Pull/ranks=%d", ranks), func(b *testing.B) {
			h, step := setup()
			clock := make([]int64, ranks)
			resume, stop := make([]func() (struct{}, bool), ranks), make([]func(), ranks)
			for r := range resume {
				resume[r], stop[r] = iter.Pull(func(yield func(struct{}) bool) {
					for clock[r] += step(); yield(struct{}{}); clock[r] += step() {
					}
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := h[0].rank
				resume[r]() // the minimum runs to its next yield point
				h[0].t = clock[r]
				heap.Fix(&h, 0)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/yield")
			for _, s := range stop {
				s()
			}
		})
	}
}
