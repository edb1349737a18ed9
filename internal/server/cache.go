package server

import (
	"context"
	"slices"
	"sync"
)

// sketchCache holds resident sketches keyed by SketchKey with
// single-flight population: concurrent queries for an uncached key all
// wait (each bounded by its own context) on one build. Builds run
// detached, so a waiter timing out does not abort the build — the sketch
// still lands in the cache for the retry the 503 invites.
type sketchCache struct {
	mu      sync.Mutex
	max     int // resident bound; <= 0 means unbounded
	entries map[SketchKey]*cacheEntry
	order   []SketchKey // insertion order, for eviction
}

// cacheEntry is one key's slot: ready closes when the build finishes
// (successfully or not).
type cacheEntry struct {
	ready  chan struct{}
	sketch *Sketch
	err    error
}

func newSketchCache(max int) *sketchCache {
	return &sketchCache{max: max, entries: make(map[SketchKey]*cacheEntry)}
}

// get returns the sketch for key, building it via build if absent. hit
// reports whether an entry (ready or in flight) already existed. The
// context bounds only this caller's wait, never the build itself. A failed
// build is not cached: the error goes to every waiter, then the slot is
// freed so a later query can retry.
func (c *sketchCache) get(ctx context.Context, key SketchKey, build func() (*Sketch, error)) (sk *Sketch, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.order = append(c.order, key)
		c.evictLocked(key)
		go func() {
			sk, err := build()
			c.mu.Lock()
			e.sketch, e.err = sk, err
			if err != nil {
				delete(c.entries, key)
				if i := slices.Index(c.order, key); i >= 0 {
					c.order = slices.Delete(c.order, i, i+1)
				}
			}
			c.mu.Unlock()
			close(e.ready)
		}()
	}
	c.mu.Unlock()
	// A finished entry always wins, even over an already-expired context:
	// the data is resident, so failing the caller would be gratuitous.
	select {
	case <-e.ready:
		return e.sketch, ok, e.err
	default:
	}
	select {
	case <-e.ready:
		return e.sketch, ok, e.err
	case <-ctx.Done():
		return nil, ok, ctx.Err()
	}
}

// put inserts a prebuilt (snapshot-loaded) sketch.
func (c *sketchCache) put(s *Sketch) {
	e := &cacheEntry{ready: make(chan struct{}), sketch: s}
	close(e.ready)
	c.mu.Lock()
	if _, ok := c.entries[s.Key]; !ok {
		c.entries[s.Key] = e
		c.order = append(c.order, s.Key)
		c.evictLocked(s.Key)
	}
	c.mu.Unlock()
}

// len returns the number of resident entries (including in-flight builds).
func (c *sketchCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// evictLocked drops the oldest finished entry while over capacity,
// sparing keep (the entry just inserted) and in-flight builds (evicting a
// build in progress would detach its waiters from the slot and invite a
// duplicate run).
func (c *sketchCache) evictLocked(keep SketchKey) {
	if c.max <= 0 {
		return
	}
	for i := 0; len(c.entries) > c.max && i < len(c.order); {
		key := c.order[i]
		e := c.entries[key]
		done := false
		select {
		case <-e.ready:
			done = true
		default:
		}
		if key == keep || !done {
			i++
			continue
		}
		delete(c.entries, key)
		c.order = slices.Delete(c.order, i, i+1)
	}
}
