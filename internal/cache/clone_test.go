package cache

import (
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentClonesOfFrozenCache: several goroutines clone one frozen
// cache and write their clones while the live cache it was snapshotted from
// keeps writing. Clone only reads the frozen cache, and every writer copies
// a shared block before writing it, so under -race nothing races, each
// clone ends as a serial clone given the same writes does, and the frozen
// cache's image never changes.
func TestConcurrentClonesOfFrozenCache(t *testing.T) {
	const sets, workers = 64, 4
	churn := func(c *Cache, seed int) {
		for i := 0; i < 3000; i++ {
			set, tag := (i*7+seed)%sets, Tag(i%97+seed*1000)
			if !c.Lookup(set, tag) {
				c.Insert(set, tag, i%3 == 0)
			}
			if i%11 == 0 {
				c.Invalidate(set, Tag((i+5)%97+seed*1000))
			}
		}
	}
	live := New("llc", sets, 8, NewLRU())
	churn(live, 0)
	frozen := live.Snapshot()
	want := frozen.ExportState()
	serial := make([]*State, workers)
	for g := range serial {
		c := frozen.Clone(nil)
		churn(c, g+1)
		serial[g] = c.ExportState()
	}

	got := make([]*State, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := frozen.Clone(nil)
			churn(c, g+1)
			got[g] = c.ExportState()
		}(g)
	}
	churn(live, workers+1)
	wg.Wait()

	for g := range got {
		if !reflect.DeepEqual(got[g], serial[g]) {
			t.Errorf("clone %d, written concurrently, differs from its serial twin", g)
		}
	}
	if !reflect.DeepEqual(frozen.ExportState(), want) {
		t.Error("a clone's or the live cache's writes reached the frozen cache")
	}
}
