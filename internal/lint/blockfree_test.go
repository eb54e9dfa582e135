package lint

import (
	"reflect"
	"testing"
)

func TestBlockfreeFlagsBlockingOps(t *testing.T) {
	got := checkFixture(t, BlockfreeAnalyzer, hotFixturePkg, "bf.go", `
package hot

import "time"

//lint:hotpath
func root(ch chan int) {
	ch <- 1
	<-ch
	for range ch {
	}
	select {
	case <-ch:
	}
	time.Sleep(time.Millisecond)
}
`)
	wantFindings(t, got, "blockfree",
		"channel send may block",
		"channel receive may block",
		"range over a channel blocks until close",
		"select without default may block",
		"time.Sleep parks the goroutine",
	)
}

func TestBlockfreeSelectWithDefaultPasses(t *testing.T) {
	// A select with a default never parks, and its comm operations do not
	// block individually — neither may be flagged.
	got := checkFixture(t, BlockfreeAnalyzer, hotFixturePkg, "bf.go", `
package hot

//lint:hotpath
func root(ch chan int) {
	select {
	case v := <-ch:
		_ = v
	case ch <- 2:
	default:
	}
}
`)
	wantFindings(t, got, "blockfree")
}

func TestBlockfreeChainsThroughTransitiveCalls(t *testing.T) {
	got := checkFixture(t, BlockfreeAnalyzer, hotFixturePkg, "bf.go", `
package hot

//lint:hotpath
func root(ch chan int) { drain(ch) }

func drain(ch chan int) { <-ch }
`)
	wantFindings(t, got, "blockfree", "channel receive may block")
	if want := []string{"hot.root", "hot.drain"}; !reflect.DeepEqual(got[0].Chain, want) {
		t.Errorf("chain = %v, want %v", got[0].Chain, want)
	}
}

func TestBlockfreeFlagsUnprovableCalls(t *testing.T) {
	got := checkFixture(t, BlockfreeAnalyzer, hotFixturePkg, "bf.go", `
package hot

import "sync"

type ext interface{ do() }

//lint:hotpath
func root(f func(), e ext, wg *sync.WaitGroup, o *sync.Once) {
	f()
	e.do()
	wg.Wait()
	o.Do(clean)
}

func clean() {}
`)
	wantFindings(t, got, "blockfree",
		"call through a function value cannot be proven non-blocking",
		"interface method call resolves to no loaded implementation",
		"sync.WaitGroup.Wait may block",
		"sync.Once.Do may block behind the first caller",
	)
}

func TestBlockfreeAcceptsSyncAtomic(t *testing.T) {
	// sync/atomic never parks a goroutine, so the whitelist admits it on
	// the hot path; a sibling out-of-module call in the same body is
	// still unprovable.
	got := checkFixture(t, BlockfreeAnalyzer, hotFixturePkg, "bf.go", `
package hot

import (
	"strconv"
	"sync/atomic"
)

type snap struct{ n int }

type shard struct {
	stop atomic.Bool
	cur  atomic.Pointer[snap]
}

//lint:hotpath
func root(s *shard, n int) int {
	if s.stop.Load() {
		return 0
	}
	_ = strconv.Itoa(n)
	return s.cur.Load().n
}
`)
	wantFindings(t, got, "blockfree",
		"call into strconv.Itoa cannot be proven non-blocking",
	)
}

func TestBlockfreeFlagsLockAcquisitionNotRelease(t *testing.T) {
	// Taking a lock may wait for its holder; giving it back never waits,
	// so the release must not surface as an unprovable out-of-module call.
	got := checkFixture(t, BlockfreeAnalyzer, hotFixturePkg, "bf.go", `
package hot

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
}

//lint:hotpath
func (s *S) root() {
	s.mu.Lock()
	s.mu.Unlock()
	s.rw.RLock()
	s.rw.RUnlock()
}
`)
	wantFindings(t, got, "blockfree",
		"sync.Mutex.Lock waits for the lock's holder",
		"sync.RWMutex.RLock waits for the lock's holder",
	)
}
