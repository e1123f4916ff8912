package compilecache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// testKey returns a 64-hex key derived from i, shaped like Key's output.
func testKey(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func entryOf(key, payload string) Entry {
	return Entry{OriginRequest: "req-" + key[:6], Assembly: payload, Listing: "0: addq", MaxLive: 2}
}

// TestRepeatAfterCoalesceHits: a request issued the moment a coalesced
// waiter is released must hit. The leader stores its entry before it
// retires the flight, so a caller can never find neither and start a
// second compute.
func TestRepeatAfterCoalesceHits(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	for round := 0; round < 20; round++ {
		key := testKey(100 + round)
		var computes atomic.Int32
		started, release := make(chan struct{}), make(chan struct{})
		compute := func() (Entry, error) {
			if computes.Add(1) == 1 {
				close(started)
				<-release
			}
			return entryOf(key, "repeat"), nil
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c.GetOrCompute(key, ModeUse, compute)
		}()
		<-started
		go func() {
			defer wg.Done()
			c.GetOrCompute(key, ModeUse, compute) // coalesces onto the leader
			c.GetOrCompute(key, ModeUse, compute) // the repeat
		}()
		// Give the waiter time to block on the flight; the assertion holds
		// however the two goroutines interleave.
		time.Sleep(time.Millisecond)
		close(release)
		wg.Wait()
		if n := computes.Load(); n != 1 {
			t.Fatalf("round %d: %d computes of one key, want 1", round, n)
		}
	}
}

// TestStampede is the thundering-herd guarantee: N concurrent identical
// requests against a slow compute cost exactly one compute — one miss,
// N−1 coalesced waiters, all sharing the leader's result. Run under
// -race (the package is in the tier-1 race gate).
func TestStampede(t *testing.T) {
	reg := obs.NewCompilerRegistry()
	c := New(Config{MaxEntries: 8})
	c.SetRegistry(reg)
	key := testKey(10)

	const n = 24
	var (
		arrived  atomic.Int32
		computes atomic.Int32
	)
	compute := func() (Entry, error) {
		computes.Add(1)
		// Hold the flight open until every goroutine has reached
		// GetOrCompute, so all N−1 others must coalesce rather than hit.
		for arrived.Load() < n {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		return entryOf(key, "stampede"), nil
	}

	outcomes := make([]Outcome, n)
	entries := make([]Entry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			e, out, err := c.GetOrCompute(key, ModeUse, compute)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			outcomes[i], entries[i] = out, e
		}()
	}
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	var miss, coalesced, hit int
	for i, out := range outcomes {
		switch out {
		case OutcomeMiss:
			miss++
		case OutcomeCoalesced:
			coalesced++
		case OutcomeHit:
			hit++
		}
		if entries[i].Assembly != "stampede" {
			t.Errorf("goroutine %d got wrong entry: %+v", i, entries[i])
		}
	}
	if miss != 1 || coalesced != n-1 || hit != 0 {
		t.Fatalf("outcomes: %d miss, %d coalesced, %d hit; want 1/%d/0", miss, coalesced, hit, n-1)
	}
	if v := reg.CounterValue(obs.MCacheMisses); v != 1 {
		t.Errorf("miss counter = %v, want 1", v)
	}
	if v := reg.CounterValue(obs.MCacheCoalesced); v != n-1 {
		t.Errorf("coalesced counter = %v, want %d", v, n-1)
	}
}

func TestHitAfterMiss(t *testing.T) {
	reg := obs.NewCompilerRegistry()
	c := New(Config{MaxEntries: 8})
	c.SetRegistry(reg)
	key := testKey(11)
	var computes int
	compute := func() (Entry, error) { computes++; return entryOf(key, "one"), nil }

	if _, out, err := c.GetOrCompute(key, ModeUse, compute); err != nil || out != OutcomeMiss {
		t.Fatalf("first lookup: out=%v err=%v", out, err)
	}
	e, out, err := c.GetOrCompute(key, ModeUse, compute)
	if err != nil || out != OutcomeHit || e.Assembly != "one" {
		t.Fatalf("second lookup: out=%v err=%v entry=%+v", out, err, e)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	if v := reg.CounterValue(obs.MCacheHits); v != 1 {
		t.Errorf("hit counter = %v, want 1", v)
	}
	if h := reg.Histogram(obs.MCacheHitSeconds); h.Count != 1 {
		t.Errorf("hit latency histogram count = %d, want 1", h.Count)
	}
}

// TestLeaderErrorPropagatesAndRetries: a failed compute is not stored —
// its error reaches the leader, and the next request runs compute again.
func TestLeaderErrorPropagatesAndRetries(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	key := testKey(12)
	boom := errors.New("solver exploded")
	calls := 0
	if _, out, err := c.GetOrCompute(key, ModeUse, func() (Entry, error) {
		calls++
		return Entry{}, boom
	}); !errors.Is(err, boom) || out != OutcomeMiss {
		t.Fatalf("failed compute: out=%v err=%v", out, err)
	}
	e, out, err := c.GetOrCompute(key, ModeUse, func() (Entry, error) {
		calls++
		return entryOf(key, "recovered"), nil
	})
	if err != nil || out != OutcomeMiss || e.Assembly != "recovered" {
		t.Fatalf("retry: out=%v err=%v entry=%+v", out, err, e)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (error must not be cached)", calls)
	}
}

// TestCoalescedErrorPropagates: waiters coalesced onto a failing leader
// see the leader's error (with OutcomeCoalesced) and do not hang.
func TestCoalescedErrorPropagates(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	key := testKey(13)
	boom := errors.New("leader failed")
	started := make(chan struct{})
	release := make(chan struct{})

	type res struct {
		out Outcome
		err error
	}
	leader := make(chan res, 1)
	go func() {
		_, out, err := c.GetOrCompute(key, ModeUse, func() (Entry, error) {
			close(started)
			<-release
			return Entry{}, boom
		})
		leader <- res{out, err}
	}()
	<-started
	waiter := make(chan res, 1)
	go func() {
		_, out, err := c.GetOrCompute(key, ModeUse, func() (Entry, error) {
			t.Error("waiter must not compute")
			return Entry{}, nil
		})
		waiter <- res{out, err}
	}()
	// The waiter blocks on the flight; release the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if r := <-leader; !errors.Is(r.err, boom) || r.out != OutcomeMiss {
		t.Fatalf("leader: %+v", r)
	}
	if r := <-waiter; !errors.Is(r.err, boom) || r.out != OutcomeCoalesced {
		t.Fatalf("waiter: %+v", r)
	}
}

// TestComputePanicReleasesWaiters: a panicking leader must not leave
// waiters blocked forever or wedge the key.
func TestComputePanicReleasesWaiters(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	key := testKey(14)
	func() {
		defer func() { recover() }()
		c.GetOrCompute(key, ModeUse, func() (Entry, error) { panic("pipeline bug") })
		t.Fatal("panic did not propagate")
	}()
	// The key is not wedged: a fresh compute succeeds.
	e, out, err := c.GetOrCompute(key, ModeUse, func() (Entry, error) {
		return entryOf(key, "after-panic"), nil
	})
	if err != nil || out != OutcomeMiss || e.Assembly != "after-panic" {
		t.Fatalf("after panic: out=%v err=%v entry=%+v", out, err, e)
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *Cache
	e, out, err := c.GetOrCompute(testKey(17), ModeUse, func() (Entry, error) {
		return entryOf(testKey(17), "direct"), nil
	})
	if err != nil || out != OutcomeBypass || e.Assembly != "direct" {
		t.Fatalf("nil cache: out=%v err=%v entry=%+v", out, err, e)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache should report zero entries")
	}
	c.SetRegistry(nil) // must not panic
}

// TestLRUEvictionByEntries: the entry bound evicts least-recently-used
// keys first, and a touched key is spared.
func TestLRUEvictionByEntries(t *testing.T) {
	reg := obs.NewCompilerRegistry()
	c := New(Config{MaxEntries: 2})
	c.SetRegistry(reg)
	k1, k2, k3 := testKey(20), testKey(21), testKey(22)
	mk := func(k string) func() (Entry, error) {
		return func() (Entry, error) { return entryOf(k, k[:8]), nil }
	}
	c.GetOrCompute(k1, ModeUse, mk(k1))
	c.GetOrCompute(k2, ModeUse, mk(k2))
	c.GetOrCompute(k1, ModeUse, mk(k1)) // touch k1: k2 is now LRU
	c.GetOrCompute(k3, ModeUse, mk(k3)) // evicts k2
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, out, _ := c.GetOrCompute(k1, ModeUse, mk(k1)); out != OutcomeHit {
		t.Errorf("k1 should have survived (touched), got %v", out)
	}
	if _, out, _ := c.GetOrCompute(k2, ModeUse, mk(k2)); out != OutcomeMiss {
		t.Errorf("k2 should have been evicted, got %v", out)
	}
	if v := reg.CounterValue(obs.MCacheEvictions); v < 1 {
		t.Errorf("eviction counter = %v, want >= 1", v)
	}
	if v := reg.GaugeValue(obs.MCacheEntries); v != 2 {
		t.Errorf("entries gauge = %v, want 2", v)
	}
}

// TestConcurrentDistinctKeys: the single-flight map must not serialize
// unrelated keys — distinct keys compute concurrently and all land.
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := testKey(100 + i)
			e, out, err := c.GetOrCompute(key, ModeUse, func() (Entry, error) {
				return entryOf(key, fmt.Sprintf("p%d", i)), nil
			})
			if err != nil || out != OutcomeMiss || e.Assembly != fmt.Sprintf("p%d", i) {
				t.Errorf("key %d: out=%v err=%v entry=%+v", i, out, err, e)
			}
		}()
	}
	wg.Wait()
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
}
