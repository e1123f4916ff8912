package compilecache

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/obs"
)

// Mode selects how one lookup treats the cache.
type Mode int

const (
	// ModeUse is the default: serve a hit if present, compute and store
	// otherwise, coalesce onto an identical in-flight compute.
	ModeUse Mode = iota
	// ModeRefresh skips the hit lookup and recomputes, overwriting the
	// stored entry — but still coalesces onto an in-flight compute (its
	// result is fresh by definition).
	ModeRefresh
	// ModeBypass ignores the cache entirely: no lookup, no coalescing,
	// no store. The computed result is not published.
	ModeBypass
)

// Outcome reports how a lookup was answered.
type Outcome string

const (
	// OutcomeHit: answered from a cached entry (memory or disk tier).
	OutcomeHit Outcome = "hit"
	// OutcomeMiss: this caller led the compute (fresh compile).
	OutcomeMiss Outcome = "miss"
	// OutcomeCoalesced: blocked on an identical in-flight compute and
	// took the leader's result.
	OutcomeCoalesced Outcome = "coalesced"
	// OutcomeBypass: the cache was disabled or skipped for this call.
	OutcomeBypass Outcome = "bypass"
)

// Config sizes and wires a Cache.
type Config struct {
	// MaxEntries bounds the in-memory LRU by entry count (0 or negative
	// disables the entry bound; at least one bound should be set).
	MaxEntries int
	// MaxBytes bounds the in-memory LRU by summed Entry JSON size.
	MaxBytes int64
	// Store is the optional persistent tier consulted on memory misses
	// and written through on computes. Store errors are tolerated.
	Store Store
	// Sink receives denali_cache_* metrics (nil-safe).
	Sink *obs.Sink
}

// Cache is the in-process compile cache: a goroutine-safe LRU over
// Entries, backed by an optional persistent Store, with single-flight
// deduplication of concurrent identical computes. The zero value is not
// usable; a nil *Cache is — every method degrades to pass-through.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key -> lru element (value *lruItem)
	lru     *list.List               // front = most recently used
	bytes   int64
	flights map[string]*flightCall

	maxEntries int
	maxBytes   int64
	store      Store
	sink       *obs.Sink
}

type lruItem struct {
	key   string
	entry Entry
	size  int64
}

// flightCall is one in-flight compute: the leader closes done once,
// after which entry/err are immutable and readable without the lock.
type flightCall struct {
	done  chan struct{}
	entry Entry
	err   error
}

// New returns a cache sized by cfg. If neither bound is positive the
// entry bound defaults to 1024 so an unconfigured cache cannot grow
// without limit.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 && cfg.MaxBytes <= 0 {
		cfg.MaxEntries = 1024
	}
	return &Cache{
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
		flights:    make(map[string]*flightCall),
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		store:      cfg.Store,
		sink:       cfg.Sink,
	}
}

// SetSink (re)attaches a metrics sink; serve calls this so a cache built
// at flag-parse time publishes into the server's registry. Nil-safe on
// both sides.
func (c *Cache) SetSink(s *obs.Sink) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sink = s
	c.mu.Unlock()
}

// Len returns the number of in-memory entries (0 on nil).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the summed JSON size of in-memory entries (0 on nil).
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// GetOrCompute answers one lookup. On a hit the cached Entry returns
// immediately; on a miss the caller becomes the leader and compute runs
// exactly once no matter how many identical requests arrive concurrently
// — the rest block on the leader and share its result (or its error:
// a failed compute is not stored, so a later request retries). A nil
// *Cache runs compute directly with OutcomeBypass.
func (c *Cache) GetOrCompute(key string, mode Mode, compute func() (Entry, error)) (Entry, Outcome, error) {
	if c == nil || mode == ModeBypass {
		e, err := compute()
		return e, OutcomeBypass, err
	}
	start := time.Now()

	c.mu.Lock()
	if mode != ModeRefresh {
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			entry := el.Value.(*lruItem).entry
			sink := c.sink
			c.mu.Unlock()
			sink.Add(obs.MCacheHits, 1, obs.T("tier", "memory"))
			sink.Observe(obs.MCacheHitSeconds, time.Since(start).Seconds())
			return entry, OutcomeHit, nil
		}
	}
	// Coalesce onto an in-flight compute — in refresh mode too, since an
	// in-flight result is fresh by definition.
	if fl, ok := c.flights[key]; ok {
		sink := c.sink
		c.mu.Unlock()
		<-fl.done
		sink.Add(obs.MCacheCoalesced, 1)
		if fl.err != nil {
			return Entry{}, OutcomeCoalesced, fl.err
		}
		sink.Observe(obs.MCacheHitSeconds, time.Since(start).Seconds())
		return fl.entry, OutcomeCoalesced, nil
	}
	// No flight yet: register one BEFORE the (possibly slow) disk lookup,
	// so a herd arriving during the disk read still coalesces.
	fl := &flightCall{done: make(chan struct{})}
	c.flights[key] = fl
	store, sink := c.store, c.sink
	c.mu.Unlock()

	if mode != ModeRefresh && store != nil {
		if entry, ok, err := store.Get(key); err != nil {
			sink.Add(obs.MCacheStoreErrors, 1)
		} else if ok {
			c.insert(key, entry)
			c.resolve(key, fl, entry, nil)
			sink.Add(obs.MCacheHits, 1, obs.T("tier", "disk"))
			sink.Observe(obs.MCacheHitSeconds, time.Since(start).Seconds())
			return entry, OutcomeHit, nil
		}
	}

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
			fl.err = errComputePanic
			c.resolve(key, fl, Entry{}, errComputePanic)
		}
	}()

	c.sink.Add(obs.MCacheMisses, 1)
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
	if c.store != nil {
		if serr := c.store.Put(key, entry); serr != nil {
			c.sink.Add(obs.MCacheStoreErrors, 1)
		}
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

// insert adds (or replaces) a memory entry and evicts LRU victims until
// both bounds hold again.
func (c *Cache) insert(key string, entry Entry) {
	size := entry.size()
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		it := el.Value.(*lruItem)
		c.bytes += size - it.size
		it.entry, it.size = entry, size
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&lruItem{key: key, entry: entry, size: size})
		c.bytes += size
	}
	evicted := 0
	for c.overLocked() {
		back := c.lru.Back()
		if back == nil || back.Value.(*lruItem).key == key && c.lru.Len() == 1 {
			// Never evict the entry just inserted down to empty — a single
			// oversized entry simply occupies the whole budget.
			break
		}
		it := c.lru.Remove(back).(*lruItem)
		delete(c.entries, it.key)
		c.bytes -= it.size
		evicted++
	}
	bytes, entries, sink := c.bytes, c.lru.Len(), c.sink
	c.mu.Unlock()
	if evicted > 0 {
		sink.Add(obs.MCacheEvictions, float64(evicted))
	}
	sink.Set(obs.MCacheBytes, float64(bytes))
	sink.Set(obs.MCacheEntries, float64(entries))
}

func (c *Cache) overLocked() bool {
	if c.maxEntries > 0 && c.lru.Len() > c.maxEntries {
		return true
	}
	if c.maxBytes > 0 && c.bytes > c.maxBytes {
		return true
	}
	return false
}
