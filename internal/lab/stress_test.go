package lab_test

import (
	"sync"
	"testing"

	"repro/internal/fault"
)

// TestConcurrentEnvsNoSharedState runs every registry scenario — TCP
// transfer through middleboxes plus a live mid-stream reconfiguration,
// the daemon's full lock/session path — at both its sizes concurrently,
// each on its own engine. Every engine is single-threaded by design, so
// the only way this test can trip the race detector is a hidden shared
// global (package-level map, cached buffer, unsynchronized counter)
// leaking between independent simulations. Run with -race.
func TestConcurrentEnvsNoSharedState(t *testing.T) {
	var wg sync.WaitGroup
	for i, sc := range fault.Scenarios() {
		for j, p := range []fault.Params{sc.Inspect, sc.Sweep} {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				run := sc.Build(seed, p)
				run.Observe()
				run.Start()
				run.Run()
				if v := run.Violations(); len(v) > 0 {
					t.Errorf("%s seed %d: %v", sc.Name, seed, v)
				}
			}(int64(2*i + j + 1))
		}
	}
	wg.Wait()
}
