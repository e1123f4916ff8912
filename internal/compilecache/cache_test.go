package compilecache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func entryOf(key, payload string) Entry {
	e := testEntry(key)
	e.Assembly = payload
	return e
}

// TestRepeatAfterCoalesceHits: a request issued the moment a coalesced
// waiter is released must hit. The leader stores its entry before it
// retires the flight, so a caller can never find neither and start a
// second compute. A large entry widens the leader's store step (sizing
// the entry marshals it), the window such a repeat would land in.
func TestRepeatAfterCoalesceHits(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	payload := strings.Repeat("addq r1, r2, r3\n", 1<<15)
	for round := 0; round < 20; round++ {
		key := testKey(100 + round)
		var computes atomic.Int32
		started, release := make(chan struct{}), make(chan struct{})
		compute := func() (Entry, error) {
			if computes.Add(1) == 1 {
				close(started)
				<-release
			}
			return entryOf(key, payload), nil
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
	c := New(Config{MaxEntries: 8, Sink: obs.NewSink(reg)})
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
	c := New(Config{MaxEntries: 8, Sink: obs.NewSink(reg)})
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
	if v := reg.CounterValue(obs.MCacheHits, obs.T("tier", "memory")); v != 1 {
		t.Errorf("memory hit counter = %v, want 1", v)
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

func TestRefreshRecomputes(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	key := testKey(15)
	calls := 0
	compute := func() (Entry, error) { calls++; return entryOf(key, fmt.Sprintf("v%d", calls)), nil }
	c.GetOrCompute(key, ModeUse, compute)
	e, out, err := c.GetOrCompute(key, ModeRefresh, compute)
	if err != nil || out != OutcomeMiss || e.Assembly != "v2" {
		t.Fatalf("refresh: out=%v err=%v entry=%+v", out, err, e)
	}
	// The refreshed entry replaced the old one.
	e, out, _ = c.GetOrCompute(key, ModeUse, compute)
	if out != OutcomeHit || e.Assembly != "v2" {
		t.Fatalf("post-refresh hit: out=%v entry=%+v", out, e)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestBypassSkipsEverything(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	key := testKey(16)
	c.GetOrCompute(key, ModeUse, func() (Entry, error) { return entryOf(key, "stored"), nil })
	e, out, err := c.GetOrCompute(key, ModeBypass, func() (Entry, error) {
		return entryOf(key, "bypassed"), nil
	})
	if err != nil || out != OutcomeBypass || e.Assembly != "bypassed" {
		t.Fatalf("bypass: out=%v err=%v entry=%+v", out, err, e)
	}
	// Bypass neither read nor wrote the cached entry.
	e, out, _ = c.GetOrCompute(key, ModeUse, func() (Entry, error) { t.Fatal("unexpected compute"); return Entry{}, nil })
	if out != OutcomeHit || e.Assembly != "stored" {
		t.Fatalf("after bypass: out=%v entry=%+v", out, e)
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
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache should report zero sizes")
	}
	c.SetSink(nil) // must not panic
}

// TestLRUEvictionByEntries: the entry bound evicts least-recently-used
// keys first, and a touched key is spared.
func TestLRUEvictionByEntries(t *testing.T) {
	reg := obs.NewCompilerRegistry()
	c := New(Config{MaxEntries: 2, Sink: obs.NewSink(reg)})
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

// TestLRUEvictionByBytes: the byte bound evicts too, and a single entry
// larger than the whole budget still caches (it just occupies it alone).
func TestLRUEvictionByBytes(t *testing.T) {
	small := entryOf(testKey(30), "x")
	budget := 2*small.size() + small.size()/2 // fits two entries, not three
	c := New(Config{MaxBytes: budget})
	keys := []string{testKey(30), testKey(31), testKey(32)}
	for _, k := range keys {
		k := k
		c.GetOrCompute(k, ModeUse, func() (Entry, error) { return entryOf(k, "x"), nil })
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 under the byte budget", c.Len())
	}
	if c.Bytes() > budget {
		t.Fatalf("Bytes = %d exceeds budget %d", c.Bytes(), budget)
	}
	// One oversized entry: cached alone rather than rejected.
	big := New(Config{MaxBytes: 10})
	k := testKey(33)
	big.GetOrCompute(k, ModeUse, func() (Entry, error) { return entryOf(k, "oversized"), nil })
	if _, out, _ := big.GetOrCompute(k, ModeUse, func() (Entry, error) { return Entry{}, errors.New("no") }); out != OutcomeHit {
		t.Fatalf("oversized entry not cached: %v", out)
	}
	if big.Len() != 1 {
		t.Fatalf("oversized cache Len = %d, want 1", big.Len())
	}
}

// TestDiskPromotion: a memory miss that the persistent store answers is
// a disk-tier hit and is promoted into memory for the next lookup.
func TestDiskPromotion(t *testing.T) {
	reg := obs.NewCompilerRegistry()
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(40)
	if err := store.Put(key, entryOf(key, "persisted")); err != nil {
		t.Fatal(err)
	}
	c := New(Config{MaxEntries: 8, Store: store, Sink: obs.NewSink(reg)})
	e, out, err := c.GetOrCompute(key, ModeUse, func() (Entry, error) {
		return Entry{}, errors.New("must not compute")
	})
	if err != nil || out != OutcomeHit || e.Assembly != "persisted" {
		t.Fatalf("disk hit: out=%v err=%v entry=%+v", out, err, e)
	}
	if v := reg.CounterValue(obs.MCacheHits, obs.T("tier", "disk")); v != 1 {
		t.Errorf("disk hit counter = %v, want 1", v)
	}
	// Promoted: second lookup is a memory hit.
	c.GetOrCompute(key, ModeUse, func() (Entry, error) { return Entry{}, errors.New("no") })
	if v := reg.CounterValue(obs.MCacheHits, obs.T("tier", "memory")); v != 1 {
		t.Errorf("memory hit counter = %v, want 1", v)
	}
}

// TestRestartSurvivesHit: a cache rebuilt over the same store directory
// (process restart) answers without recomputing.
func TestRestartSurvivesHit(t *testing.T) {
	dir := t.TempDir()
	key := testKey(41)
	s1, _ := OpenDisk(dir)
	c1 := New(Config{MaxEntries: 8, Store: s1})
	if _, out, err := c1.GetOrCompute(key, ModeUse, func() (Entry, error) {
		return entryOf(key, "gen1"), nil
	}); err != nil || out != OutcomeMiss {
		t.Fatalf("gen1: out=%v err=%v", out, err)
	}
	s2, _ := OpenDisk(dir)
	c2 := New(Config{MaxEntries: 8, Store: s2})
	e, out, err := c2.GetOrCompute(key, ModeUse, func() (Entry, error) {
		return Entry{}, errors.New("must not recompute after restart")
	})
	if err != nil || out != OutcomeHit || e.Assembly != "gen1" {
		t.Fatalf("gen2: out=%v err=%v entry=%+v", out, err, e)
	}
}

// TestStoreErrorsTolerated: a failing store degrades the cache to
// memory-only; compiles still succeed and the failure is counted.
func TestStoreErrorsTolerated(t *testing.T) {
	reg := obs.NewCompilerRegistry()
	c := New(Config{MaxEntries: 8, Store: failingStore{}, Sink: obs.NewSink(reg)})
	key := testKey(42)
	e, out, err := c.GetOrCompute(key, ModeUse, func() (Entry, error) {
		return entryOf(key, "ok-anyway"), nil
	})
	if err != nil || out != OutcomeMiss || e.Assembly != "ok-anyway" {
		t.Fatalf("with failing store: out=%v err=%v entry=%+v", out, err, e)
	}
	if _, out, _ = c.GetOrCompute(key, ModeUse, nil); out != OutcomeHit {
		t.Fatalf("memory tier should still serve: %v", out)
	}
	if v := reg.CounterValue(obs.MCacheStoreErrors); v != 2 { // one Get, one Put
		t.Errorf("store error counter = %v, want 2", v)
	}
}

type failingStore struct{}

func (failingStore) Get(string) (Entry, bool, error) { return Entry{}, false, errors.New("io down") }
func (failingStore) Put(string, Entry) error         { return errors.New("io down") }

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
