package compilecache

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/obs"
)

// Mode selects how one lookup treats the cache. It has one value: a
// caller that wants no cache compiles without one. It stays because
// perfbench's traced replay, a module of its own, calls
// GetOrCompute(key, ModeUse, …).
type Mode int

// ModeUse serves a hit if present, computes and stores otherwise, and
// coalesces onto an identical in-flight compute.
const ModeUse Mode = 0

// Outcome reports how a lookup was answered.
type Outcome string

const (
	// OutcomeHit: answered from a cached entry.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss: this caller led the compute (fresh compile).
	OutcomeMiss Outcome = "miss"
	// OutcomeCoalesced: blocked on an identical in-flight compute and
	// took the leader's result.
	OutcomeCoalesced Outcome = "coalesced"
	// OutcomeBypass: no cache answered; a nil *Cache ran compute directly.
	OutcomeBypass Outcome = "bypass"
)

// Config sizes and wires a Cache.
type Config struct {
	// MaxEntries bounds the LRU by entry count (0 or negative uses 1024).
	MaxEntries int
}

// Cache is the in-process compile cache: a goroutine-safe LRU over
// Entries, bounded by entry count, with single-flight deduplication of
// concurrent identical computes. Entries live as long as the process.
// The zero value is not usable; a nil *Cache is — every method degrades
// to pass-through.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key -> lru element (value *lruItem)
	lru     *list.List               // front = most recently used
	flights map[string]*flightCall

	maxEntries int
	reg        *obs.Registry // receives denali_cache_* metrics; nil publishes nothing
}

type lruItem struct {
	key   string
	entry Entry
}

// flightCall is one in-flight compute: the leader closes done once,
// after which entry/err are immutable and readable without the lock.
type flightCall struct {
	done  chan struct{}
	entry Entry
	err   error
}

// New returns a cache sized by cfg. A non-positive MaxEntries defaults
// to 1024 so an unconfigured cache cannot grow without limit.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1024
	}
	return &Cache{
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
		flights:    make(map[string]*flightCall),
		maxEntries: cfg.MaxEntries,
	}
}

// SetRegistry attaches the registry the cache publishes its
// denali_cache_* metrics into; serve calls it so a cache built at
// flag-parse time publishes into the server's registry. Nil-safe on both
// sides.
func (c *Cache) SetRegistry(r *obs.Registry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.reg = r
	c.mu.Unlock()
}

// Len returns the number of cached entries (0 on nil).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// GetOrCompute answers one lookup. On a hit the cached Entry returns
// immediately; on a miss the caller becomes the leader and compute runs
// exactly once no matter how many identical requests arrive concurrently
// — the rest block on the leader and share its result (or its error:
// a failed compute is not stored, so a later request retries). A nil
// *Cache runs compute directly with OutcomeBypass.
func (c *Cache) GetOrCompute(key string, _ Mode, compute func() (Entry, error)) (Entry, Outcome, error) {
	if c == nil {
		e, err := compute()
		return e, OutcomeBypass, err
	}
	start := time.Now()

	c.mu.Lock()
	reg := c.reg
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		entry := el.Value.(*lruItem).entry
		c.mu.Unlock()
		reg.Add(obs.MCacheHits, 1)
		reg.Observe(obs.MCacheHitSeconds, time.Since(start).Seconds())
		return entry, OutcomeHit, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-fl.done
		reg.Add(obs.MCacheCoalesced, 1)
		if fl.err != nil {
			return Entry{}, OutcomeCoalesced, fl.err
		}
		reg.Observe(obs.MCacheHitSeconds, time.Since(start).Seconds())
		return fl.entry, OutcomeCoalesced, nil
	}
	fl := &flightCall{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()

	reg.Add(obs.MCacheMisses, 1)
	return c.lead(key, fl, compute)
}

// lead runs compute as the flight's leader. The deferred resolve fires
// even if compute panics: waiters are released with an error instead of
// hanging, and the panic propagates to the leader's own recovery layer
// (repro's compile path isolates panics per GMA).
func (c *Cache) lead(key string, fl *flightCall, compute func() (Entry, error)) (Entry, Outcome, error) {
	resolved := false
	defer func() {
		if !resolved {
			c.resolve(key, fl, Entry{}, errComputePanic)
		}
	}()

	entry, err := compute()
	resolved = true
	if err == nil {
		// Insert before deregistering the flight: a request arriving in
		// between must find the entry or the flight, never neither (which
		// would start a second compile of the same key).
		c.insert(key, entry)
	}
	c.resolve(key, fl, entry, err)
	if err != nil {
		return Entry{}, OutcomeMiss, err
	}
	return entry, OutcomeMiss, nil
}

var errComputePanic = panicError{}

type panicError struct{}

func (panicError) Error() string { return "compilecache: compute panicked" }

// resolve publishes the flight's result and deregisters it. Publishing
// (writing entry/err, closing done) happens before deregistration so a
// waiter holding the *flightCall always observes the final values.
func (c *Cache) resolve(key string, fl *flightCall, entry Entry, err error) {
	fl.entry, fl.err = entry, err
	close(fl.done)
	c.mu.Lock()
	if c.flights[key] == fl {
		delete(c.flights, key)
	}
	c.mu.Unlock()
}

// insert adds the leader's entry and evicts least-recently-used entries
// until the entry bound holds again. The key is never present already:
// only a flight's leader inserts, and a key has one flight at a time.
func (c *Cache) insert(key string, entry Entry) {
	c.mu.Lock()
	c.entries[key] = c.lru.PushFront(&lruItem{key: key, entry: entry})
	evicted := 0
	for c.lru.Len() > c.maxEntries {
		it := c.lru.Remove(c.lru.Back()).(*lruItem)
		delete(c.entries, it.key)
		evicted++
	}
	entries, reg := c.lru.Len(), c.reg
	c.mu.Unlock()
	if evicted > 0 {
		reg.Add(obs.MCacheEvictions, float64(evicted))
	}
	reg.Set(obs.MCacheEntries, float64(entries))
}
