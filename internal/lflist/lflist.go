// Package lflist implements Michael's lock-free ordered linked list
// (Michael, "High Performance Dynamic Lock-Free Hash Tables and
// List-Based Sets", SPAA 2002 — reference [16] of the paper): a sorted
// set of uint64 keys with lock-free Insert, Delete, and Contains.
//
// The paper's §3.2.6 names this structure as the LIFO-variant
// partial-list manager, and §5 names list-based sets and hash tables
// among the lock-free structures that the allocator's techniques make
// "completely dynamic": nodes here are recycled through the shared
// internal/pool freelist (not leaked, not GC-dependent), with the ABA
// problem on node reuse prevented by version tags on every link word —
// the same discipline as the allocator's own descriptor lists.
//
// Live link-word encoding: idx:40 | mark:1 | tag:23. The mark bit is
// Harris/Michael logical deletion: a marked link means the node
// holding it is deleted and must be physically unlinked by the next
// traversal. Because mark and successor share one word, deletion
// commits with a single CAS.
//
// A node's one link word serves both as its live list link (the
// encoding above) and, while the node is retired, as the pool's
// freelist link (a packed atomicx.Tagged: idx:40 | tag:24). The
// encodings place their tags at different shifts, but every store at a
// link word — list CAS, pool push, insert re-link — strictly increases
// the word's bits above the index field until tag wraparound, so no
// word value can recur across a free/reallocate cycle and the
// validation CASes stay ABA-safe under either decoding.
package lflist

import (
	"sync/atomic"

	"repro/internal/pool"
)

const (
	idxBits  = 40
	idxMask  = 1<<idxBits - 1
	markBit  = 1 << idxBits
	tagShift = idxBits + 1
)

func pack(idx uint64, marked bool, tag uint64) uint64 {
	w := idx&idxMask | tag<<tagShift
	if marked {
		w |= markBit
	}
	return w
}

func unpack(w uint64) (idx uint64, marked bool, tag uint64) {
	return w & idxMask, w&markBit != 0, w >> tagShift
}

const (
	chunkLog2 = 8
	maxChunks = 1 << 16
)

type node struct {
	key  atomic.Uint64
	next atomic.Uint64 // packed (idx, mark, tag); pool freelist word when retired
}

// PoolNext exposes the link word to the pool's freelist.
func (n *node) PoolNext() *atomic.Uint64 { return &n.next }

// List is a sorted lock-free set of uint64 keys.
type List struct {
	head atomic.Uint64 // packed link to the first node (never marked)

	pool *pool.Pool[node, *node]

	size atomic.Int64
}

// New creates an empty list.
func New() *List {
	return &List{pool: pool.New[node, *node](pool.Config{
		ChunkLog2: chunkLog2,
		MaxChunks: maxChunks,
	})}
}

func (l *List) node(idx uint64) *node { return l.pool.Get(idx) }

// allocNode produces a node holding key, or a wrapped pool.ErrExhausted
// when the node pool's chunk table is full.
func (l *List) allocNode(key uint64) (uint64, error) {
	idx, err := l.pool.Alloc(0)
	if err != nil {
		return 0, err
	}
	l.node(idx).key.Store(key)
	return idx, nil
}

func (l *List) freeNode(idx uint64) { l.pool.Retire(0, idx) }

// position is a validated (prev link word, current node) cursor.
type position struct {
	prev    *atomic.Uint64 // the link word pointing at cur
	prevW   uint64         // its observed value (for CAS validation)
	cur     uint64         // current node index (0 = end of list)
	curNext uint64         // cur's observed next word
}

// find locates the first node with key >= k, unlinking marked nodes on
// the way (Michael's Find). The returned position is a consistent
// snapshot: pos.prev held pos.prevW pointing at pos.cur, whose next
// word was pos.curNext, all re-validated against concurrent reuse.
func (l *List) find(k uint64) position { return l.findFrom(&l.head, k) }

// findFrom is find starting at an arbitrary link word (the hook the
// split-ordered hash table uses to start traversals at bucket dummy
// nodes).
func (l *List) findFrom(start *atomic.Uint64, k uint64) position {
retry:
	for {
		prev := start
		prevW := prev.Load()
		for {
			cur, cmark, _ := unpack(prevW)
			if cmark {
				// The node holding prev got marked under us.
				continue retry
			}
			if cur == 0 {
				return position{prev: prev, prevW: prevW, cur: 0}
			}
			cn := l.node(cur)
			curNext := cn.next.Load()
			curKey := cn.key.Load()
			// Validate: prev must still point at cur with the same
			// tag; otherwise cur may have been reused meanwhile.
			if prev.Load() != prevW {
				continue retry
			}
			nIdx, nMark, _ := unpack(curNext)
			if nMark {
				// cur is logically deleted: unlink it physically.
				_, _, ptag := unpack(prevW)
				newW := pack(nIdx, false, ptag+1)
				if !prev.CompareAndSwap(prevW, newW) {
					continue retry
				}
				l.freeNode(cur)
				l.size.Add(-1)
				prevW = newW
				continue
			}
			if curKey >= k {
				return position{prev: prev, prevW: prevW, cur: cur, curNext: curNext}
			}
			prev = &cn.next
			prevW = curNext
		}
	}
}

// Insert adds k; inserted is false if k was already present. The only
// error is a wrapped pool.ErrExhausted.
func (l *List) Insert(k uint64) (inserted bool, err error) {
	_, inserted, err = l.insertFrom(&l.head, k)
	return inserted, err
}

// insertFrom inserts k starting the search at the given link word and
// returns the index of k's node (fresh or pre-existing) plus whether
// this call inserted it.
func (l *List) insertFrom(start *atomic.Uint64, k uint64) (uint64, bool, error) {
	for {
		pos := l.findFrom(start, k)
		if pos.cur != 0 && l.node(pos.cur).key.Load() == k {
			// Re-validate the snapshot before reporting "present".
			if pos.prev.Load() == pos.prevW {
				return pos.cur, false, nil
			}
			continue
		}
		n, err := l.allocNode(k)
		if err != nil {
			return 0, false, err
		}
		nn := l.node(n)
		_, _, ntag := unpack(nn.next.Load())
		nn.next.Store(pack(pos.cur, false, ntag+1))
		_, _, ptag := unpack(pos.prevW)
		if pos.prev.CompareAndSwap(pos.prevW, pack(n, false, ptag+1)) {
			l.size.Add(1)
			return n, true, nil
		}
		l.freeNode(n)
	}
}

// Delete removes k; it returns false if k was not present.
func (l *List) Delete(k uint64) bool { return l.deleteFrom(&l.head, k) }

// deleteFrom deletes k starting the search at the given link word.
func (l *List) deleteFrom(start *atomic.Uint64, k uint64) bool {
	for {
		pos := l.findFrom(start, k)
		if pos.cur == 0 || l.node(pos.cur).key.Load() != k {
			if pos.prev.Load() == pos.prevW {
				return false
			}
			continue
		}
		cn := l.node(pos.cur)
		nIdx, nMark, nTag := unpack(pos.curNext)
		if nMark {
			continue // someone else is deleting it
		}
		// Logical deletion: set the mark bit on cur's next word.
		if !cn.next.CompareAndSwap(pos.curNext, pack(nIdx, true, nTag+1)) {
			continue
		}
		// Physical unlink (best effort; find() will finish it if we
		// lose the race).
		_, _, ptag := unpack(pos.prevW)
		if pos.prev.CompareAndSwap(pos.prevW, pack(nIdx, false, ptag+1)) {
			l.freeNode(pos.cur)
			l.size.Add(-1)
		} else {
			l.findFrom(start, k) // cleanup pass
		}
		return true
	}
}

// Contains reports whether k is present.
func (l *List) Contains(k uint64) bool { return l.containsFrom(&l.head, k) }

// containsTestHook, when non-nil, runs between a lookup's find and
// its validation, so tests can change the list at exactly that point.
var containsTestHook func()

// containsFrom checks membership starting at the given link word. A
// position whose prev link changed after find (a concurrent insert or
// unlink next to cur) proves nothing either way, so the lookup
// retries, as insertFrom and deleteFrom do.
func (l *List) containsFrom(start *atomic.Uint64, k uint64) bool {
	for {
		pos := l.findFrom(start, k)
		found := pos.cur != 0 && l.node(pos.cur).key.Load() == k
		if containsTestHook != nil {
			containsTestHook()
		}
		if pos.prev.Load() == pos.prevW {
			return found
		}
	}
}

// LinkOf returns the link word of a node obtained from InsertFrom —
// the traversal start the split-ordered hash table uses for bucket
// dummies. The node must never be deleted while used as a start.
func (l *List) LinkOf(idx uint64) *atomic.Uint64 { return &l.node(idx).next }

// InsertHead inserts k searching from the list head and returns the
// node index and whether this call inserted it.
func (l *List) InsertHead(k uint64) (uint64, bool, error) { return l.insertFrom(&l.head, k) }

// InsertFrom inserts k searching from the given link word (see
// LinkOf) and returns the node index and whether this call inserted it.
func (l *List) InsertFrom(start *atomic.Uint64, k uint64) (uint64, bool, error) {
	return l.insertFrom(start, k)
}

// DeleteFrom deletes k searching from the given link word.
func (l *List) DeleteFrom(start *atomic.Uint64, k uint64) bool {
	return l.deleteFrom(start, k)
}

// ContainsFrom checks membership searching from the given link word.
func (l *List) ContainsFrom(start *atomic.Uint64, k uint64) bool {
	return l.containsFrom(start, k)
}

// Len returns a racy size estimate.
func (l *List) Len() int {
	n := l.size.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Snapshot returns the keys in order (quiescent callers only).
func (l *List) Snapshot() []uint64 {
	var out []uint64
	w := l.head.Load()
	for {
		idx, _, _ := unpack(w)
		if idx == 0 {
			return out
		}
		n := l.node(idx)
		nw := n.next.Load()
		if _, marked, _ := unpack(nw); !marked {
			out = append(out, n.key.Load())
		}
		w = nw
	}
}
