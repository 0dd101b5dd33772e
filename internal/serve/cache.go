package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"zipr"
)

// Key is a content address for one (input image, rewrite configuration)
// pair: SHA-256 of the serialized input folded with SHA-256 of the
// canonical Config fingerprint. Identical keys imply byte-identical
// rewrite output (the pipeline is deterministic), which is what lets
// the cache answer repeat requests without touching the pipeline.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the wire/log form).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// site derives the deterministic fault-injection site for this key, so
// chaos decisions about a request are a pure function of its content.
func (k Key) site() uint32 { return binary.LittleEndian.Uint32(k[:4]) }

// CacheKey computes the content address of one rewrite request.
func CacheKey(input []byte, cfg zipr.Config) Key {
	inSum := sha256.Sum256(input)
	fpSum := sha256.Sum256([]byte(cfg.Fingerprint()))
	h := sha256.New()
	h.Write(inSum[:])
	h.Write(fpSum[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// entry is one cached rewrite: the output image plus the report fields
// that survive caching (pointers into pipeline state — Trace, IRDB,
// AddrMap — are deliberately not cached; requests that need them take
// the miss path). sum pins the output bytes so corruption of a cached
// entry is detected on hit instead of being served.
type entry struct {
	key      Key
	out      []byte
	sum      [sha256.Size]byte
	stats    zipr.Stats
	layout   string
	warnings []string
}

// lruCache is a byte-budgeted LRU over rewrite outputs. Not safe for
// concurrent use; the Server serializes access under its mutex.
type lruCache struct {
	budget  int64
	bytes   int64
	entries map[Key]*list.Element // Value is *entry
	lru     list.List             // most recently used at front
	evicted int64
}

func newLRUCache(budget int64) *lruCache {
	return &lruCache{budget: budget, entries: make(map[Key]*list.Element)}
}

// get returns the entry for k (promoting it to most-recently-used) or
// nil.
func (c *lruCache) get(k Key) *entry {
	el := c.entries[k]
	if el == nil {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry)
}

// put inserts or replaces the entry for e.key and evicts from the cold
// end until the byte budget holds again. An entry larger than the whole
// budget is not cached at all — it would only evict everything else and
// then be evicted by the next insert.
func (c *lruCache) put(e *entry) {
	if old := c.entries[e.key]; old != nil {
		c.remove(old.Value.(*entry))
	}
	if int64(len(e.out)) > c.budget {
		return
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += int64(len(e.out))
	for c.bytes > c.budget && c.lru.Len() > 1 {
		c.evicted++
		c.remove(c.lru.Back().Value.(*entry))
	}
}

// remove drops e from the cache entirely; a no-op when e is no longer
// the entry stored under its key.
func (c *lruCache) remove(e *entry) {
	el := c.entries[e.key]
	if el == nil || el.Value != e {
		return
	}
	delete(c.entries, e.key)
	c.lru.Remove(el)
	c.bytes -= int64(len(e.out))
}
