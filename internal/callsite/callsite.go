// Package callsite implements the multi-level call-site signatures that
// First-Aid uses as patch application points.
//
// The paper defines a call-site as "the return addresses of the most recent
// three functions on the stack" (§2): memory objects allocated or freed
// under the same three-level call chain tend to share characteristics (the
// same buffer overflows, the same premature frees), so a call-site is the
// natural signature for a runtime patch. The simulated machine has no
// native return addresses; the equivalent here is the names of the top
// three frames of the virtual call stack maintained by package proc, which
// has the same aliasing/precision trade-off.
package callsite

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Depth is the number of stack levels included in a signature.
const Depth = 3

// ID is the interned identifier of a call-site signature. The zero ID is
// never assigned and means "no call-site".
type ID uint32

// Key is a call-site signature: the innermost Depth frames, leaf first.
// Shallower stacks leave trailing entries empty.
type Key [Depth]string

// String renders the key leaf-first, e.g. "util_ald_free<util_ald_cache_purge<main".
func (k Key) String() string {
	parts := make([]string, 0, Depth)
	for _, f := range k {
		if f == "" {
			break
		}
		parts = append(parts, f)
	}
	if len(parts) == 0 {
		return "<empty>"
	}
	return strings.Join(parts, "<")
}

// Leaf returns the innermost frame, the function that issued the request.
func (k Key) Leaf() string { return k[0] }

// FromStack builds a Key from a call stack ordered outermost-first, the
// order in which package proc stores frames.
func FromStack(stack []string) Key {
	var k Key
	for i := 0; i < Depth && i < len(stack); i++ {
		k[i] = stack[len(stack)-1-i]
	}
	return k
}

// Table interns call-site keys and assigns stable IDs. A Table belongs to
// one simulated process tree; IDs are only meaningful within their table.
// The zero value is not usable; call NewTable.
type Table struct {
	byKey map[Key]ID
	byID  []Key // index id-1

	// shared marks byKey as shared with a Clone: the first new key on
	// either side copies it. (byID is shared at full capacity, so an
	// append on either side reallocates it.)
	shared bool
}

// NewTable returns an empty interning table.
func NewTable() *Table {
	return &Table{byKey: make(map[Key]ID)}
}

// Intern returns the ID for key, assigning a fresh one on first sight.
func (t *Table) Intern(key Key) ID {
	if id, ok := t.byKey[key]; ok {
		return id
	}
	if t.shared {
		t.byKey = maps.Clone(t.byKey)
		t.shared = false
	}
	t.byID = append(t.byID, key)
	id := ID(len(t.byID))
	t.byKey[key] = id
	return id
}

// Lookup returns the ID for key, or 0 if it has never been interned.
func (t *Table) Lookup(key Key) ID { return t.byKey[key] }

// Key returns the signature for id. It panics on an unknown ID, which would
// indicate IDs leaking across tables.
func (t *Table) Key(id ID) Key {
	if id == 0 || int(id) > len(t.byID) {
		panic(fmt.Sprintf("callsite: unknown id %d", id))
	}
	return t.byID[id-1]
}

// Len returns the number of interned call-sites.
func (t *Table) Len() int { return len(t.byID) }

// Clone returns an independent copy of the table with identical IDs, so a
// forked machine (parallel validation) can intern new sites without racing
// the original. Existing IDs remain valid in both. The two tables share
// their contents until either interns a new key, so a clone costs the
// same however many sites the program has. Clone must be called while no
// other goroutine is using t.
func (t *Table) Clone() *Table {
	t.shared = true
	return &Table{byKey: t.byKey, byID: slices.Clip(t.byID), shared: true}
}

// All returns every interned ID in assignment order.
func (t *Table) All() []ID {
	ids := make([]ID, len(t.byID))
	for i := range ids {
		ids[i] = ID(i + 1)
	}
	return ids
}

// Hash64 returns a stable 64-bit hash of the key, used for the synthetic
// "return address" values printed in bug reports so they resemble the
// paper's 0x4022f971@util_ald_free notation.
func Hash64(key Key) uint64 {
	h := fnv.New64a()
	for _, f := range key {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// FormatFrame renders one frame as the paper's reports do:
// "0x4022f971@util_ald_free".
func FormatFrame(key Key, level int) string {
	if level < 0 || level >= Depth || key[level] == "" {
		return ""
	}
	// Derive a per-level synthetic address from the whole-key hash so the
	// same function appearing in different chains prints differently,
	// like distinct return addresses would.
	addr := uint32(Hash64(key)>>uint(8*level)) | 0x0800_0000
	return fmt.Sprintf("%#x@%s", addr, key[level])
}

// Set is an ordered set of call-site IDs, used by the diagnosis engine's
// binary search over candidate application points.
type Set struct {
	ids map[ID]struct{}
}

// NewSet builds a Set from ids.
func NewSet(ids ...ID) *Set {
	s := &Set{ids: make(map[ID]struct{}, len(ids))}
	for _, id := range ids {
		s.ids[id] = struct{}{}
	}
	return s
}

// Add inserts id.
func (s *Set) Add(id ID) { s.ids[id] = struct{}{} }

// Remove deletes id.
func (s *Set) Remove(id ID) { delete(s.ids, id) }

// Contains reports membership.
func (s *Set) Contains(id ID) bool {
	_, ok := s.ids[id]
	return ok
}

// Len returns the set size.
func (s *Set) Len() int { return len(s.ids) }

// Sorted returns the members in increasing ID order, giving the binary
// search a deterministic partition.
func (s *Set) Sorted() []ID {
	out := make([]ID, 0, len(s.ids))
	for id := range s.ids {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Halves splits the set into two deterministic halves (first half gets the
// extra element on odd sizes).
func (s *Set) Halves() (lo, hi *Set) {
	ids := s.Sorted()
	mid := (len(ids) + 1) / 2
	return NewSet(ids[:mid]...), NewSet(ids[mid:]...)
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	return NewSet(s.Sorted()...)
}
