package core

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/vossketch/vos/internal/stream"
)

// Incremental merging. A sketch kept equal to the merge of other sketches
// (the engine's read view over its shards) need not be rebuilt when one of
// them takes a few edges: each edge flips one bit of one array word and
// moves one user's counter, so only those words and users can differ from
// the merge. A Dirty attached to a source with TrackDirty records them as
// the source is written, and Remerge recomputes exactly those words and
// users in the merged sketch — O(churn) instead of O(m) per refresh.

// maxLogged bounds the per-edge user log of a Dirty (8 bytes an entry, so
// 128 KiB). A longer write burst between refreshes stops the log and
// counts every user as written: the next Remerge then recomputes every
// counter, which costs about what logging and folding that many users
// would have.
const maxLogged = 1 << 14

// Dirty records what per-edge writes to a sketch touched since it was last
// emptied: one bit per array word flipped (m/64 bits, so 32 KiB at
// m = 2^24) and the users whose counters moved. Only Process and
// ProcessBatch (on the sketch, or on the Window whose merged view it is)
// record; whole-array writes — Merge, Unmerge, Reset, window rotation —
// do not, and whoever derives state from the sketch must mark them with
// MarkAll. A Dirty is not safe for concurrent use: it is guarded by
// whatever guards the sketch writing into it.
type Dirty struct {
	words  []uint64 // bit w set: array word w may have changed
	nwords int      // array words covered, (m+63)/64

	// The write path appends each edge's user to logged, repeats and
	// all, which costs it no map operation; Absorb and Remerge fold the
	// log into the distinct set users. allUsers replaces both when the
	// log overflowed or MarkAll ran: every user counts as written.
	logged   []stream.User
	users    map[stream.User]struct{}
	allUsers bool

	// full is set by MarkAll: the next Remerge is a full recompute, so it
	// empties the merged sketch's change log instead of adding to it.
	full bool
}

// NewDirty creates an empty Dirty for sketches of configuration cfg.
func NewDirty(cfg Config) *Dirty {
	nwords := int((cfg.MemoryBits + 63) / 64)
	return &Dirty{
		words:  make([]uint64, (nwords+63)/64),
		nwords: nwords,
		users:  make(map[stream.User]struct{}),
	}
}

// mark records a flip at array position p by user u.
func (d *Dirty) mark(p uint64, u stream.User) {
	w := p >> 6
	d.words[w>>6] |= 1 << (w & 63)
	if len(d.logged) < maxLogged {
		d.logged = append(d.logged, u)
	} else {
		d.allUsers = true
	}
}

// fold moves the log into the distinct set.
func (d *Dirty) fold() {
	if !d.allUsers {
		for _, u := range d.logged {
			d.users[u] = struct{}{}
		}
	}
	d.logged = d.logged[:0]
}

// Absorb moves o's records into d, leaving o empty. Both must have been
// created for the same configuration.
func (d *Dirty) Absorb(o *Dirty) {
	for i, x := range o.words {
		if x != 0 {
			d.words[i] |= x
			o.words[i] = 0
		}
	}
	d.allUsers = d.allUsers || o.allUsers
	d.full = d.full || o.full
	if !d.allUsers {
		for _, u := range o.logged {
			d.users[u] = struct{}{}
		}
		for u := range o.users {
			d.users[u] = struct{}{}
		}
	}
	o.logged = o.logged[:0]
	o.allUsers, o.full = false, false
	emptyUsers(&o.users)
}

// MarkAll records every array word and every user, so the next Remerge
// recomputes the merge in full.
func (d *Dirty) MarkAll() {
	for i := range d.words {
		d.words[i] = ^uint64(0)
	}
	if tail := d.nwords & 63; tail != 0 {
		d.words[len(d.words)-1] = 1<<tail - 1
	}
	d.allUsers = true
	d.full = true
}

// ResolveUsers makes the recorded users explicit: when d counts every
// user as written (MarkAll, or a log that overflowed), "every user"
// becomes every user with state in any of sketches. Pass every sketch a
// Remerge will read or write — the merged sketch too, since a user whose
// state is gone from every source must still lose its counter there.
func (d *Dirty) ResolveUsers(sketches ...*VOS) {
	d.fold()
	if !d.allUsers {
		return
	}
	for _, s := range sketches {
		for u := range s.card {
			d.users[u] = struct{}{}
		}
	}
	d.allUsers = false
}

// ForEachUser calls fn for every recorded user, in unspecified order.
// Call ResolveUsers first: a Dirty that counts every user as written
// lists none here.
func (d *Dirty) ForEachUser(fn func(u stream.User)) {
	d.fold()
	for u := range d.users {
		fn(u)
	}
}

// emptyUsers empties a recorded-user set. Clearing a map costs its
// capacity, not its length, so a set that once grew large (a full
// recompute, a write burst between reads) is replaced instead of cleared:
// otherwise every later refresh, however small, would pay to sweep the
// buckets that burst left behind.
func emptyUsers(users *map[stream.User]struct{}) {
	if len(*users) > 1024 {
		*users = make(map[stream.User]struct{})
		return
	}
	clear(*users)
}

// TrackDirty makes Process and ProcessBatch record into d every array word
// they flip and every user they write (nil stops recording). d must have
// been created for v's configuration. Untracked sketches pay nothing: the
// batch path checks for a tracker once per batch, not per edge.
func (v *VOS) TrackDirty(d *Dirty) { v.dirty = d }

// Remerge brings v back to the merge of srcs after srcs took the writes d
// records: every array word d marks becomes the XOR of that word across
// srcs, and every user d marks gets card(u), which must return the sum of
// the srcs' counters for u (zeros are pruned). The caller supplies the
// sum because it may know which sources can hold a user — the engine's
// shards partition users, so it reads one shard, not all of them.
// Everything d does not mark must already equal the merge, so v must
// equal the merge of srcs as they were when d was last emptied. Every
// source must share v's configuration.
//
// Remerge empties d, bumps the write version and returns the number of
// array words recomputed. It logs the words whose value changed, stamped
// with the new version, so cached recovered sketches stay usable: a later
// read patches an entry by re-reading only its slots in those words (see
// recoveredWords). The log holds at most changeLimit words; a refresh
// that would overflow it drops its oldest records, and one that changes
// more than the whole limit — or a full recompute (MarkAll) — empties it,
// so every entry recovered before is gathered again.
func (v *VOS) Remerge(srcs []*VOS, d *Dirty, card func(stream.User) int64) int {
	for _, s := range srcs {
		if s.cfg != v.cfg {
			panic(fmt.Sprintf("core: Remerge source config %+v does not match %+v", s.cfg, v.cfg))
		}
	}
	limit := v.changeLimit()
	logging := !d.full
	var changed []int
	n := 0
	for i, x := range d.words {
		if x == 0 {
			continue
		}
		d.words[i] = 0
		for ; x != 0; x &= x - 1 {
			w := i<<6 + bits.TrailingZeros64(x)
			acc := uint64(0)
			for _, s := range srcs {
				acc ^= s.arr.Word(w)
			}
			if acc != v.arr.Word(w) {
				v.arr.SetWord(w, acc)
				switch {
				case !logging:
				case len(changed) == limit:
					logging, changed = false, nil
				default:
					changed = append(changed, w)
				}
			}
			n++
		}
	}
	d.full = false
	d.ResolveUsers(append(srcs, v)...)
	for u := range d.users {
		if c := card(u); c == 0 {
			delete(v.card, u)
		} else {
			v.card[u] = c
		}
	}
	emptyUsers(&d.users)
	if !logging {
		v.touch()
		return n
	}
	v.version++
	v.logChanges(changed)
	return n
}

// wordChanges is one change-log record: the array words whose value the
// Remerge that produced version ver changed.
type wordChanges struct {
	ver   uint64
	words []int
}

// changeLimit bounds the change log's total length: m/4096 words (4096 at
// m = 2^24), so the log never outgrows one change bitmap (32 KiB there)
// and a bitmap build stays cheap, but at least 64, one 64-edge write's
// worth, so small sketches can patch too. A write that changes more goes
// unlogged: the entries it leaves stale are gathered again.
func (v *VOS) changeLimit() int {
	return max(len(v.arr.UnsafeWords())/64, 64)
}

// logChanges appends the words the Remerge to the current version changed,
// dropping the oldest records until the log fits changeLimit again and
// moving horizon past what it dropped. len(words) must not exceed
// changeLimit.
func (v *VOS) logChanges(words []int) {
	if len(words) == 0 {
		return // nothing changed: every patchable entry stays patchable
	}
	drop := 0
	for v.logged+len(words) > v.changeLimit() {
		v.horizon = v.changes[drop].ver
		v.logged -= len(v.changes[drop].words)
		drop++
	}
	v.changes = append(slices.Delete(v.changes, 0, drop), wordChanges{ver: v.version, words: words})
	v.logged += len(words)
}

// changeUnion is the set of array words changed between two versions, one
// bit per word in Dirty's layout. It is immutable once published.
type changeUnion struct {
	from, to uint64
	words    []uint64
}

// changedSince returns, as a bitmap, the array words changed since
// version s, which must satisfy horizon ≤ s < version. The bitmap is
// built once per (s, version) and shared read-only by concurrent readers
// — a top-K's candidates were mostly recovered at one stamp, so they
// share one build.
func (v *VOS) changedSince(s uint64) []uint64 {
	if u := v.union.Load(); u != nil && u.from == s && u.to == v.version {
		return u.words
	}
	bm := make([]uint64, (len(v.arr.UnsafeWords())+63)/64)
	for i := len(v.changes) - 1; i >= 0 && v.changes[i].ver > s; i-- {
		for _, w := range v.changes[i].words {
			bm[w>>6] |= 1 << (w & 63)
		}
	}
	v.union.Store(&changeUnion{from: s, to: v.version, words: bm})
	return bm
}
