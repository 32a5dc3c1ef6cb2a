package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"xbc/internal/program"
	"xbc/internal/trace"
)

// The trace corpus cache: generating a 1M-uop stream costs far more than
// replaying it through a frontend, and every figure of a run replays the
// same 21 workloads at the same length. The corpus deduplicates that work
// content-addressed: entries are keyed by (hash of the workload spec, uop
// count), so two cells asking for the same dynamic stream share one
// generation — even when they race from parallel runner goroutines
// (singleflight via a per-entry sync.Once) — while any difference in the
// spec or the length yields a distinct entry, never an aliased stream.
//
// Sharing is safe because callers receive private *trace.Stream views
// over one shared, immutable record slice: frontends and segmentation
// passes only read Recs, and the read cursor (Read/Reset/Seek) lives in
// the per-caller view.

// defaultCorpusStreams bounds the shared corpus. 64 entries hold the full
// 21-workload suite at three different stream lengths; at the default 1M
// uops each entry is roughly 17 MB, keeping the worst case near 1 GB.
const defaultCorpusStreams = 64

// sharedCorpus is the process-wide corpus used by stream(); tests build
// private instances with newCorpus.
var sharedCorpus = newCorpus(defaultCorpusStreams)

// StreamFor returns a private Stream view over the process-wide shared
// corpus for (spec, minUops): the simulation service and the experiment
// harness draw from one content-addressed pool, so a sweep of jobs that
// differ only in cache configuration generates each dynamic stream once.
func StreamFor(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	return sharedCorpus.stream(spec, minUops)
}

// CorpusStore persists generated streams across process restarts. The
// corpus consults it before generating (a hit skips generation entirely —
// sound because generation is deterministic and the .xtr encoding is
// lossless) and hands every fresh generation back for safekeeping. Save
// is fire-and-forget: persistence failures must not fail a simulation.
type CorpusStore interface {
	Load(key string) ([]byte, bool)
	Save(key string, val []byte)
}

// SetCorpusStore attaches a persistent store to the process-wide corpus.
func SetCorpusStore(cs CorpusStore) { sharedCorpus.setStore(cs) }

// ClearCorpusStore detaches cs if it is still the attached store; a store
// attached later by someone else is left in place.
func ClearCorpusStore(cs CorpusStore) { sharedCorpus.clearStore(cs) }

// corpusKey content-addresses one generated stream.
type corpusKey struct {
	spec [sha256.Size]byte // hash of the canonical spec encoding
	uops uint64            // requested minimum dynamic uop count
}

// ProgramDigest content-addresses a generator spec: the SHA-256 of its
// canonical encoding. Specs are flat value structs, so their
// deterministic JSON encoding is a sound canonical form: equal specs hash
// equal, any differing field hashes different. With a uop count it
// addresses one generated stream (the corpus key), so any memo over a
// stream keys by it rather than by a display name.
func ProgramDigest(spec *program.Spec) ([sha256.Size]byte, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("experiments: canonicalizing workload spec %q: %w", spec.Name, err)
	}
	return sha256.Sum256(b), nil
}

// corpusKeyFor derives the content key for (spec, uops).
func corpusKeyFor(spec program.Spec, uops uint64) (corpusKey, error) {
	sum, err := ProgramDigest(&spec)
	if err != nil {
		return corpusKey{}, err
	}
	return corpusKey{spec: sum, uops: uops}, nil
}

// corpusEntry is one cached generation. The sync.Once is the singleflight
// gate: every caller for the key calls once.Do, exactly one executes the
// generation, and the Once's happens-before edge publishes name/recs/err
// to the waiters.
type corpusEntry struct {
	once sync.Once
	name string
	recs []trace.Rec
	err  error
}

// corpus is a bounded, content-addressed stream cache.
type corpus struct {
	mu      sync.Mutex
	max     int
	entries map[corpusKey]*corpusEntry
	order   []corpusKey // LRU order, oldest first
	store   CorpusStore // optional persistence behind the memory cache

	generates atomic.Uint64 // trace.Generate invocations (test observability)
}

func newCorpus(max int) *corpus {
	if max < 1 {
		max = 1
	}
	return &corpus{max: max, entries: make(map[corpusKey]*corpusEntry)}
}

// stream returns a private Stream view for (spec, minUops), generating the
// underlying records at most once per key no matter how many callers race.
// The views share one record slice; each has its own read cursor.
func (c *corpus) stream(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	key, err := corpusKeyFor(spec, minUops)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &corpusEntry{}
		c.entries[key] = e
	}
	c.touch(key)
	c.mu.Unlock()

	e.once.Do(func() {
		c.mu.Lock()
		cs := c.store
		c.mu.Unlock()
		if cs != nil {
			if data, ok := cs.Load(storeKeyFor(key)); ok {
				if s, err := trace.Read(bytes.NewReader(data)); err == nil {
					e.name, e.recs = s.Name, s.Recs
					return
				}
				// An unreadable persisted stream is not an error: fall
				// through to regeneration (which re-saves a good copy).
			}
		}
		c.generates.Add(1)
		s, err := trace.Generate(spec, minUops)
		if err != nil {
			e.err = err
			c.drop(key, e)
			return
		}
		e.name, e.recs = s.Name, s.Recs
		if cs != nil {
			var buf bytes.Buffer
			if err := trace.Write(&buf, s); err == nil {
				cs.Save(storeKeyFor(key), buf.Bytes())
			}
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return &trace.Stream{Name: e.name, Recs: e.recs}, nil
}

// touch moves key to the MRU end and evicts past the bound. Evicting an
// in-flight entry is harmless: callers already holding its pointer finish
// their generation; the key just stops being cached. Caller holds c.mu.
func (c *corpus) touch(key corpusKey) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

// storeKeyFor renders a corpus key as the persistent store's string key.
func storeKeyFor(key corpusKey) string {
	return hex.EncodeToString(key.spec[:]) + ":" + strconv.FormatUint(key.uops, 10)
}

func (c *corpus) setStore(cs CorpusStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = cs
}

func (c *corpus) clearStore(cs CorpusStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == cs {
		c.store = nil
	}
}

// drop removes a failed entry so a later request retries generation with
// a fresh Once instead of replaying the cached error forever.
func (c *corpus) drop(key corpusKey, e *corpusEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != e {
		return // already evicted or replaced
	}
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}
