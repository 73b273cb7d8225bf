package allocext

import (
	"slices"
	"sync/atomic"

	"firstaid/internal/vmem"
)

// objTable holds the extension's Object records, keyed by user address and
// laid out like vmem's page table, one level deeper: a root of groups, one
// per groupPages pages of address space, no group where no object lives; a
// group holds one leaf per page, and a leaf the records of the objects
// whose user address lies on that page, sorted by address.
//
// Groups and leaves are shared copy-on-write by a checkpoint, its clones
// and the live extension, so State, SetState and CopyStateFrom copy a root
// instead of every object. Ownership is by generation rather than by
// reference count: a table mutates a group or leaf in place only when it
// was made under the table's current generation, and a table that shares
// its groups takes a fresh generation, so the first mutation on either
// side copies. Nothing is ever written into a shared group or leaf, which
// keeps clones on other goroutines race-free without atomics on the hot
// path.
type objTable struct {
	root []*objGroup // indexed by page number >> groupShift
	gen  uint64      // ownership generation; unique per table instance
}

const (
	groupShift = 6
	groupPages = 1 << groupShift
	groupMask  = groupPages - 1
)

type objGroup struct {
	gen    uint64
	leaves [groupPages]*objLeaf
	n      int // non-nil leaves
}

type objLeaf struct {
	gen  uint64
	objs []*Object // sorted by User
}

// tableGens hands out ownership generations; zero is never used.
var tableGens atomic.Uint64

func newObjTable() objTable { return objTable{gen: tableGens.Add(1)} }

// share returns a table holding t's groups and leaves under a generation of
// its own. t keeps its generation: a live table that goes on mutating must
// disown its groups as well.
func (t *objTable) share() objTable {
	return objTable{root: slices.Clone(t.root), gen: tableGens.Add(1)}
}

// disown gives t a fresh generation, so the groups and leaves it has shared
// are copied before its next mutation of them.
func (t *objTable) disown() { t.gen = tableGens.Add(1) }

func objPage(user vmem.Addr) uint32 { return uint32(user) / vmem.PageSize }

// leaf returns the leaf of page pn, or nil.
func (t *objTable) leaf(pn uint32) *objLeaf {
	if gi := pn >> groupShift; int(gi) < len(t.root) {
		if g := t.root[gi]; g != nil {
			return g.leaves[pn&groupMask]
		}
	}
	return nil
}

// search returns the index of user's record in l, or where it would go.
func (l *objLeaf) search(user vmem.Addr) (int, bool) {
	lo, hi := 0, len(l.objs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.objs[mid].User < user {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.objs) && l.objs[lo].User == user
}

// get returns the record at user, or nil. The record is read-only: mutate
// through mut.
func (t *objTable) get(user vmem.Addr) *Object {
	if l := t.leaf(objPage(user)); l != nil {
		if i, ok := l.search(user); ok {
			return l.objs[i]
		}
	}
	return nil
}

// writableLeaf is the one accessor every mutation goes through: it returns
// page pn's leaf owned by t, copying the group and the leaf first when
// they belong to another generation and creating them where none exist.
func (t *objTable) writableLeaf(pn uint32) *objLeaf {
	gi := int(pn >> groupShift)
	if gi >= len(t.root) {
		t.root = append(t.root, make([]*objGroup, gi+1-len(t.root))...)
	}
	g := t.root[gi]
	switch {
	case g == nil:
		g = &objGroup{gen: t.gen}
		t.root[gi] = g
	case g.gen != t.gen:
		g = &objGroup{gen: t.gen, leaves: g.leaves, n: g.n}
		t.root[gi] = g
	}
	li := pn & groupMask
	l := g.leaves[li]
	switch {
	case l == nil:
		l = &objLeaf{gen: t.gen}
		g.leaves[li] = l
		g.n++
	case l.gen != t.gen:
		l = l.copy(t.gen)
		g.leaves[li] = l
	}
	return l
}

// copy duplicates the leaf's records for generation gen: one slab for all
// of them, and each init bitmap, which validation mutates in place.
func (l *objLeaf) copy(gen uint64) *objLeaf {
	slab := make([]Object, len(l.objs))
	nl := &objLeaf{gen: gen, objs: make([]*Object, len(l.objs), len(l.objs)+1)}
	for i, o := range l.objs {
		slab[i] = *o
		if o.written != nil {
			slab[i].written = slices.Clone(o.written)
		}
		nl.objs[i] = &slab[i]
	}
	return nl
}

// put records o, replacing any record at the same user address.
func (t *objTable) put(o *Object) {
	l := t.writableLeaf(objPage(o.User))
	if i, ok := l.search(o.User); ok {
		l.objs[i] = o
	} else {
		l.objs = slices.Insert(l.objs, i, o)
	}
}

// mut returns a writable record of the object at user, which must exist.
// A record from get may be a copy-on-write leaf's and is read-only.
func (t *objTable) mut(user vmem.Addr) *Object {
	l := t.writableLeaf(objPage(user))
	i, _ := l.search(user)
	return l.objs[i]
}

// del removes the record at user, which must exist; a leaf or group left
// empty leaves the table.
func (t *objTable) del(user vmem.Addr) {
	pn := objPage(user)
	l := t.writableLeaf(pn)
	i, _ := l.search(user)
	l.objs = slices.Delete(l.objs, i, i+1)
	if len(l.objs) == 0 {
		g := t.root[pn>>groupShift]
		g.leaves[pn&groupMask] = nil
		if g.n--; g.n == 0 {
			t.root[pn>>groupShift] = nil
		}
	}
}

// each calls f for every record in address order until f returns false.
func (t *objTable) each(f func(o *Object) bool) {
	for _, g := range t.root {
		if g == nil {
			continue
		}
		for _, l := range g.leaves {
			if l == nil {
				continue
			}
			for _, o := range l.objs {
				if !f(o) {
					return
				}
			}
		}
	}
}
