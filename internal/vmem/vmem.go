// Package vmem implements a paged 32-bit virtual address space with
// copy-on-write snapshots.
//
// It is the machine substrate for the First-Aid reproduction: the simulated
// heap allocator (package heap) obtains memory from a Space via Sbrk, every
// simulated load and store is checked against the page table (touching an
// unmapped page raises an access-violation fault, as a hardware MMU would),
// and the checkpointing layer (package checkpoint) takes snapshots whose
// cost is proportional to the number of pages dirtied since the previous
// snapshot — exactly the fork/COW behaviour of the Flashback kernel module
// used by the paper.
//
// # Page table
//
// The page table has two levels, like a hardware MMU's: a root of leaves,
// each leaf holding the page pointers of leafPages consecutive pages, and
// no leaf where nothing is mapped (the gap between the break and MmapBase
// costs nothing). Leaves and pages are both reference counted and shared
// copy-on-write, which is what makes every whole-table operation cost what
// was dirtied instead of what is mapped:
//
//   - Snapshot and CloneCOW copy the root and take one reference per leaf;
//   - the first write, Sbrk, Map or Unmap that lands in a shared leaf
//     copies that leaf (its pages gain a reference each), and the first
//     write to a shared page copies the page — copy, then drop the old
//     reference, at both levels;
//   - Restore points the root back at the snapshot's leaves, so it touches
//     only the root slots that differ, and Release drops the snapshot's
//     leaf references;
//   - page-frame and leaf freelists recycle what those drops free, so the
//     diagnose/rollback loop stops hammering the Go allocator.
//
// # Fast paths
//
// The Space is the hot path under every boundary-tag operation of the
// allocator, so the word accessors are engineered like a software MMU:
//
//   - a micro-TLB caches the last translation (page number → exclusively
//     owned, writable page data), so an aligned ReadU32/WriteU32 on an
//     already-writable page is a bounds check and a direct 4-byte
//     load/store — no mapped() range scan, no per-byte loop;
//   - leaf and page reference counts are atomic, which makes CloneCOW
//     possible: a clone shares every leaf with its parent and copies only
//     on write, so handing a machine snapshot to a validation goroutine
//     costs a root copy instead of O(heap bytes);
//   - Mismatches, the canary check under every diagnosis scan, compares
//     page frames in place: one page-table probe and one vectorized count
//     per page, no copy, and no allocation for an intact range.
package vmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"firstaid/internal/trace"
)

// Addr is a virtual address in a Space. The address space is 32-bit, which
// comfortably holds every simulated workload while keeping snapshots small.
type Addr = uint32

// PageSize is the size of a virtual page in bytes. It matches the x86 page
// size used by the paper's testbed so that COW page counts are comparable.
const PageSize = 4096

const pageShift = 12

// A leaf of the page table covers leafPages consecutive pages (256 KiB of
// address space): small enough that copying one for a single dirtied page
// is cheap, large enough that the root stays a few hundred slots for the
// evaluation's address spaces.
const (
	leafShift = 6
	leafPages = 1 << leafShift
	leafMask  = leafPages - 1
)

// HeapBase is the address at which Sbrk-managed memory begins. Address 0 is
// kept unmapped so that nil-pointer dereferences fault, and a guard region
// below HeapBase catches large negative offsets.
const HeapBase Addr = 0x0001_0000

// Fault kinds reported by Space operations.
var (
	// ErrUnmapped is returned when an access touches a page that has
	// never been mapped (beyond the break, or in the guard region).
	ErrUnmapped = errors.New("vmem: access to unmapped page")
	// ErrOutOfMemory is returned by Sbrk when the requested growth would
	// exceed the configured limit.
	ErrOutOfMemory = errors.New("vmem: out of memory")
)

// AccessError describes a faulting memory access. It unwraps to ErrUnmapped
// so callers can match with errors.Is.
type AccessError struct {
	Addr  Addr
	Len   int
	Write bool
}

func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("vmem: %s of %d bytes at %#x touches unmapped page", kind, e.Len, e.Addr)
}

// Unwrap reports the underlying sentinel so errors.Is(err, ErrUnmapped) works.
func (e *AccessError) Unwrap() error { return ErrUnmapped }

// page is a unit of COW sharing. refs counts how many leaves reference the
// data; a write through a page with refs > 1 first copies it.
//
// refs is atomic because leaves, and so pages, are shared across Spaces by
// CloneCOW: the parent machine and its validation clones COW-fault on the
// same pages from different goroutines. The COW protocol keeps that
// race-clean: a copier finishes reading p.data BEFORE dropping its
// reference, and a writer mutates p.data in place only after observing
// refs == 1 — the atomic decrement/load pair orders the copy's reads before
// the in-place writes.
type page struct {
	data []byte
	refs atomic.Int32
}

// leaf is one second-level page table: the pages of leafPages consecutive
// page numbers. refs counts the roots (live Spaces and Snapshots) holding
// it; a Space mutates a leaf in place only while it holds the only
// reference, under the same copy-then-decrement protocol as page.
type leaf struct {
	pages [leafPages]*page
	n     int // non-nil entries of pages
	refs  atomic.Int32
}

// MmapBase is the address at which Map-managed regions begin. The break
// may grow at most to here; large allocations live above. 32 MiB of sbrk
// zone is ample once the allocator diverts big blocks to Map.
const MmapBase Addr = 0x0200_0000

// freelistCap bounds the per-Space page freelist (256 frames = 1 MiB), and
// leafFreelistCap its leaf freelist. Frames and leaves beyond the caps fall
// back to the garbage collector.
const (
	freelistCap     = 256
	leafFreelistCap = 64
)

// Space is a virtual address space. It is not safe for concurrent use; the
// simulated machine is single-threaded, as were the paper's per-process
// runtimes. Distinct Spaces that share leaves via CloneCOW may run on
// different goroutines concurrently.
type Space struct {
	root     []*leaf // indexed by page number >> leafShift; nil where nothing is mapped
	resident uint64  // mapped pages
	brk      Addr    // current program break (end of mapped heap)
	limit    Addr    // maximum break
	dirty    uint64  // pages copied (COW faults) since last TakeDirty
	everMapd uint64  // total pages ever mapped, for stats

	// Micro-TLB: the last translated page whose frame this Space owns
	// exclusively (leaf and page both unshared at fill time). A hit lets
	// WriteU32 store directly without the refcount checks or COW test; any
	// operation that shares leaves or rewrites page-table slots invalidates
	// it by nilling tlbData.
	tlbPage uint32
	tlbData []byte

	// slow disables the word fast paths and the TLB, forcing every access
	// through the original byte-assembly route. The chaos differential
	// tests flip this to prove the fast paths change no semantics.
	slow bool

	// snaps tracks this Space's live (unreleased) snapshots, for the
	// dirty-page rule (sharedWithOwnSnapshot).
	snaps []*Snapshot

	// free recycles page frames whose refcount reached zero; COW copies
	// reuse them as-is, Sbrk/Map reuse them after zeroing. freeLeaves
	// recycles emptied leaves the same way.
	free       [][]byte
	freeLeaves []*leaf

	mmapCursor Addr            // next Map placement
	mmaps      map[Addr]uint32 // live Map regions: start → length (bytes)
	mmapBytes  uint64          // total bytes currently mapped via Map
	budget     uint64          // total memory budget (sbrk + Map)

	// mmapsShared marks mmaps as shared with a snapshot or a clone, which
	// then hold the same map: Map and Unmap copy it before their first
	// change. Snapshots and clones thus never copy the table, which grows
	// with live mappings (one per guard-tier slot), not with an interval's
	// changes.
	mmapsShared bool

	// mmapEpoch changes on every Map/Unmap; a snapshot records it so
	// Restore can skip reinstating the mmaps table when it never changed.
	// mmapSeq is the monotonic generator (never rewound by Restore, so a
	// reused epoch value always denotes the same table contents).
	mmapEpoch uint64
	mmapSeq   uint64

	trc trace.Emitter // execution tracer; the zero Emitter discards
}

// SetTracer wires the space to an execution-trace emitter (the zero
// Emitter detaches): faulting accesses, COW page copies and the page
// counts of snapshot/restore become trace records. Clone does not carry
// the emitter over — a cloned space is re-wired by its machine so the
// records land on the clone's own track.
func (s *Space) SetTracer(em trace.Emitter) { s.trc = em }

// SetFastPaths enables or disables the micro-TLB and aligned-word fast
// paths (enabled by default). Disabling routes every access through the
// original general path; the chaos cross-check runs both configurations
// and asserts byte-identical outcomes.
func (s *Space) SetFastPaths(on bool) {
	s.slow = !on
	s.tlbData = nil
}

// faultAccess records a faulting access and returns its AccessError.
func (s *Space) faultAccess(a Addr, n int, write bool) *AccessError {
	arg2 := uint64(n)
	if write {
		arg2 |= 1 << 63
	}
	s.trc.Emit(trace.KPageFault, uint64(a), arg2)
	return &AccessError{Addr: a, Len: n, Write: write}
}

// New creates an empty Space whose break starts at HeapBase and may grow to
// at most limit bytes of mapped heap (0 means the full 32-bit space).
func New(limit uint32) *Space {
	if limit == 0 {
		limit = 0xFFFF_F000
	}
	lim := uint64(HeapBase) + uint64(limit)
	if lim > uint64(MmapBase) {
		lim = uint64(MmapBase)
	}
	return &Space{
		brk:        HeapBase,
		limit:      Addr(lim),
		mmapCursor: MmapBase,
		mmaps:      make(map[Addr]uint32),
		budget:     uint64(limit),
	}
}

// Brk returns the current program break.
func (s *Space) Brk() Addr { return s.brk }

// MappedBytes returns the number of bytes between HeapBase and the break.
func (s *Space) MappedBytes() uint64 { return uint64(s.brk - HeapBase) }

// EverMapped returns the total number of pages this space has ever mapped.
func (s *Space) EverMapped() uint64 { return s.everMapd }

// --- page-frame and leaf plumbing -------------------------------------------------

// newPage returns a fresh page, recycling a freelist frame when possible.
// Sbrk/Map pass zero=true (the OS delivers zero-filled pages); the COW copy
// path passes zero=false because it overwrites the whole frame anyway.
func (s *Space) newPage(zero bool) *page {
	p := &page{}
	if n := len(s.free); n > 0 {
		d := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		if zero {
			clear(d)
		}
		p.data = d
	} else {
		p.data = make([]byte, PageSize)
	}
	p.refs.Store(1)
	return p
}

// decref drops one reference to p, recycling the frame once nobody holds it.
// Safe against concurrent decrefs from sibling Spaces: only the holder that
// observes the count hit zero recycles, and the atomic RMW orders every
// earlier reader's loads before the recycler's stores.
func (s *Space) decref(p *page) {
	if p.refs.Add(-1) == 0 {
		if len(s.free) < freelistCap {
			s.free = append(s.free, p.data)
		}
		p.data = nil
	}
}

// newLeaf returns an empty leaf holding one reference, recycling a
// freelist leaf when possible (dropLeaf empties a leaf before shelving it).
func (s *Space) newLeaf() *leaf {
	var l *leaf
	if n := len(s.freeLeaves); n > 0 {
		l = s.freeLeaves[n-1]
		s.freeLeaves[n-1] = nil
		s.freeLeaves = s.freeLeaves[:n-1]
	} else {
		l = &leaf{}
	}
	l.refs.Store(1)
	return l
}

// dropLeaf drops one reference to l. The holder that drops the last one
// releases the leaf's pages and shelves the emptied leaf; as with decref,
// the atomic RMW orders every other holder's reads of l.pages first.
func (s *Space) dropLeaf(l *leaf) {
	if l.refs.Add(-1) != 0 {
		return
	}
	for i, p := range l.pages {
		if p != nil {
			s.decref(p)
			l.pages[i] = nil
		}
	}
	l.n = 0
	if len(s.freeLeaves) < leafFreelistCap {
		s.freeLeaves = append(s.freeLeaves, l)
	}
}

// pageAt returns the page mapped at page number pn, or nil.
func (s *Space) pageAt(pn uint32) *page {
	if li := pn >> leafShift; int(li) < len(s.root) {
		if l := s.root[li]; l != nil {
			return l.pages[pn&leafMask]
		}
	}
	return nil
}

// writableLeaf returns root slot li's leaf ready for mutation: a leaf
// shared with a snapshot or a clone is copied first, and an empty slot
// gets a fresh leaf. The copy is bookkeeping, never dirt: its pages are
// still shared, and the page copy that follows decides what is dirtied.
// The slot must exist (growRoot).
func (s *Space) writableLeaf(li uint32) *leaf {
	l := s.root[li]
	if l == nil {
		l = s.newLeaf()
		s.root[li] = l
		return l
	}
	if l.refs.Load() > 1 {
		nl := s.newLeaf()
		nl.pages, nl.n = l.pages, l.n
		for _, p := range nl.pages {
			if p != nil {
				p.refs.Add(1)
			}
		}
		// Drop our reference only after the copy completes: a sibling
		// holder that observes refs == 1 may mutate l in place.
		s.dropLeaf(l)
		s.root[li] = nl
		l = nl
	}
	return l
}

// growRoot extends the root to hold need leaf slots. Growth reserves
// doubling spare capacity: the Map zone's cursor only ever moves forward,
// so exact-size reallocation would copy the root on every new leaf. Slots
// past len are always nil (Restore clears the ones it truncates).
func (s *Space) growRoot(need int) {
	if need <= len(s.root) {
		return
	}
	if need <= cap(s.root) {
		s.root = s.root[:need]
		return
	}
	c := 2 * cap(s.root)
	if c < need {
		// A jump past doubling (the first mapping at MmapBase) still
		// reserves headroom for the mappings that follow it.
		c = need + need/4
	}
	grown := make([]*leaf, need, c)
	copy(grown, s.root)
	s.root = grown
}

// mapPage installs a fresh zero-filled page at pn (whose root slot exists).
func (s *Space) mapPage(pn uint32) {
	l := s.writableLeaf(pn >> leafShift)
	l.pages[pn&leafMask] = s.newPage(true)
	l.n++
	s.resident++
	s.everMapd++
}

// sharedWithOwnSnapshot reports whether one of this Space's live snapshots
// still references page p at page number pn. This is the dirty-accounting
// rule: a COW fault counts as a dirtied page (and is traced) only when the
// copy preserves checkpoint state — copies forced purely by a foreign
// CloneCOW sharer are bookkeeping, not checkpoint retention, and counting
// them would make COW statistics depend on validation-goroutine timing.
func (s *Space) sharedWithOwnSnapshot(pn uint32, p *page) bool {
	li := pn >> leafShift
	for _, sn := range s.snaps {
		if int(li) < len(sn.root) {
			if l := sn.root[li]; l != nil && l.pages[pn&leafMask] == p {
				return true
			}
		}
	}
	return false
}

// Sbrk grows the mapped region by n bytes (rounded up to whole pages) and
// returns the previous break, which is the start of the new region. New
// pages are zero-filled, as the OS would deliver them.
func (s *Space) Sbrk(n uint32) (Addr, error) {
	old := s.brk
	if n == 0 {
		return old, nil
	}
	end := uint64(old) + uint64(n)
	if end > uint64(s.limit) {
		return 0, ErrOutOfMemory
	}
	newBrk := Addr(end)
	firstPage := pageNum(old)
	lastPage := pageNum(newBrk - 1)
	s.growRoot(int(lastPage>>leafShift) + 1)
	for pn := firstPage; pn <= lastPage; pn++ {
		if s.pageAt(pn) == nil {
			s.mapPage(pn)
		}
	}
	s.brk = newBrk
	s.tlbData = nil
	return old, nil
}

func pageNum(a Addr) uint32 { return uint32(a) >> pageShift }

// mapped reports whether the range [a, a+n) lies entirely within mapped
// memory: below the break in the sbrk zone (strict, so stray accesses past
// the break fault even within the break's final page), page-presence in
// the Map zone.
func (s *Space) mapped(a Addr, n int) bool {
	if n <= 0 {
		return n == 0
	}
	if !s.inZone(a, n) {
		return false
	}
	for pn := pageNum(a); pn <= pageNum(a+Addr(n-1)); pn++ {
		if s.pageAt(pn) == nil {
			return false
		}
	}
	return true
}

// inZone is mapped's bounds test for a nonempty range: inside the address
// space, and below the break when it starts in the sbrk zone. Page
// presence is left to the caller.
func (s *Space) inZone(a Addr, n int) bool {
	end := uint64(a) + uint64(n)
	return a >= HeapBase && end <= 0xFFFF_FFFF && (a >= MmapBase || end <= uint64(s.brk))
}

// wordMapped is the aligned-word form of mapped: a 4-byte access at an
// aligned address lies within one page, so the per-page scan collapses to
// the zone bounds check here plus a single slot probe at the call site.
// (In the Map zone page presence alone decides: guard pages and unmapped
// regions have nil slots, and the top-of-space guard is never mapped.)
func (s *Space) wordMapped(a Addr) bool {
	return a >= MmapBase || (a >= HeapBase && a+4 <= s.brk)
}

// --- Map / Unmap (the mmap(2) analogue) -----------------------------------------

// MapError describes a failed Map/Unmap operation.
var ErrBadUnmap = errors.New("vmem: unmap of address that is not a mapping start")

// ownMmaps makes the mmaps table private before Map or Unmap changes it.
func (s *Space) ownMmaps() {
	if !s.mmapsShared {
		return
	}
	m := make(map[Addr]uint32, len(s.mmaps)+1)
	for k, v := range s.mmaps {
		m[k] = v
	}
	s.mmaps = m
	s.mmapsShared = false
}

// Map allocates a fresh page-aligned region of at least n bytes in the Map
// zone, zero-filled, with an unmapped guard page after it (so overruns
// fault immediately, as they do past a real mmap region). It is the
// allocator's backend for large objects, dlmalloc's mmap path.
func (s *Space) Map(n uint32) (Addr, error) {
	if n == 0 {
		n = 1
	}
	length := (n + PageSize - 1) &^ (PageSize - 1)
	start := s.mmapCursor
	end := uint64(start) + uint64(length)
	if end+PageSize > 0xFFFF_F000 {
		return 0, ErrOutOfMemory
	}
	// The budget covers sbrk and Map zones together.
	if s.MappedBytes()+s.mmapBytes+uint64(length) > s.budget {
		return 0, ErrOutOfMemory
	}
	firstPage := pageNum(start)
	lastPage := pageNum(Addr(end - 1))
	s.growRoot(int(lastPage>>leafShift) + 1)
	for pn := firstPage; pn <= lastPage; pn++ {
		s.mapPage(pn)
	}
	s.ownMmaps()
	s.mmapCursor = Addr(end) + PageSize // skip a guard page
	s.mmaps[start] = length
	s.mmapBytes += uint64(length)
	s.mmapSeq++
	s.mmapEpoch = s.mmapSeq
	s.tlbData = nil
	return start, nil
}

// Unmap releases a region returned by Map. Subsequent accesses fault — the
// immediate-SIGSEGV use-after-free behaviour of munmapped memory. A leaf
// left empty leaves the root.
func (s *Space) Unmap(start Addr) error {
	length, ok := s.mmaps[start]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadUnmap, start)
	}
	for pn := pageNum(start); pn <= pageNum(start+length-1); pn++ {
		if s.pageAt(pn) == nil {
			continue
		}
		li := pn >> leafShift
		l := s.writableLeaf(li)
		s.decref(l.pages[pn&leafMask])
		l.pages[pn&leafMask] = nil
		l.n--
		s.resident--
		if l.n == 0 {
			s.root[li] = nil
			s.dropLeaf(l)
		}
	}
	s.ownMmaps()
	delete(s.mmaps, start)
	s.mmapBytes -= uint64(length)
	s.mmapSeq++
	s.mmapEpoch = s.mmapSeq
	s.tlbData = nil
	return nil
}

// MappedRegion reports whether start is a live Map region and its length.
func (s *Space) MappedRegion(start Addr) (uint32, bool) {
	n, ok := s.mmaps[start]
	return n, ok
}

// MmapBytes returns the bytes currently held by Map regions.
func (s *Space) MmapBytes() uint64 { return s.mmapBytes }

// Read copies n bytes starting at a into a fresh slice.
func (s *Space) Read(a Addr, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := s.ReadInto(a, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto fills buf with the bytes starting at a.
func (s *Space) ReadInto(a Addr, buf []byte) error {
	if !s.mapped(a, len(buf)) {
		return s.faultAccess(a, len(buf), false)
	}
	off := 0
	for off < len(buf) {
		pn := pageNum(a + Addr(off))
		po := int(a+Addr(off)) & (PageSize - 1)
		n := copy(buf[off:], s.pageAt(pn).data[po:])
		off += n
	}
	return nil
}

// Mismatches returns the offsets within [a, a+n) of the bytes that differ
// from b, in ascending order, or nil when every byte equals b — the canary
// integrity check. It reads the page frames in place: one page-table probe
// and one vectorized count per page chunk, offsets collected only from a
// chunk that differs, so an intact range allocates nothing. A range that
// is not wholly mapped faults exactly as Read does (the same AccessError,
// the same KPageFault record). With the fast paths off it copies the range
// through Read and compares byte by byte, the reference the chaos
// cross-check holds the walk to.
func (s *Space) Mismatches(a Addr, n int, b byte) ([]int, error) {
	if s.slow {
		buf, err := s.Read(a, n)
		if err != nil {
			return nil, err
		}
		var offs []int
		for i, c := range buf {
			if c != b {
				offs = append(offs, i)
			}
		}
		return offs, nil
	}
	if n == 0 {
		return nil, nil
	}
	if n < 0 || !s.inZone(a, n) {
		return nil, s.faultAccess(a, n, false)
	}
	pat := [1]byte{b}
	var offs []int
	for off := 0; off < n; {
		cur := a + Addr(off)
		p := s.pageAt(pageNum(cur))
		if p == nil {
			return nil, s.faultAccess(a, n, false)
		}
		chunk := p.data[int(cur)&(PageSize-1):]
		if len(chunk) > n-off {
			chunk = chunk[:n-off]
		}
		if bytes.Count(chunk, pat[:]) != len(chunk) {
			for i, c := range chunk {
				if c != b {
					offs = append(offs, off+i)
				}
			}
		}
		off += len(chunk)
	}
	return offs, nil
}

// writablePage returns the page's data ready for mutation, performing the
// copy-on-write if the leaf or the page is shared, and fills the micro-TLB:
// once this returns, the Space owns the frame exclusively until the next
// Snapshot, Restore, Map/Unmap, Sbrk or CloneCOW invalidates the entry.
func (s *Space) writablePage(pn uint32) []byte {
	l := s.writableLeaf(pn >> leafShift)
	i := pn & leafMask
	p := l.pages[i]
	if p.refs.Load() > 1 {
		np := s.newPage(false)
		copy(np.data, p.data)
		// The page is dirty in the checkpoint sense only if one of our
		// own snapshots retains it; see sharedWithOwnSnapshot.
		if s.sharedWithOwnSnapshot(pn, p) {
			s.dirty++
			s.trc.Emit(trace.KCOWCopy, uint64(pn), 0)
		}
		// Drop our reference only after the copy completes: a sibling
		// Space that observes refs == 1 may immediately write p.data in
		// place, and the atomic ordering makes our reads happen first.
		s.decref(p)
		l.pages[i] = np
		p = np
	}
	if !s.slow {
		s.tlbPage, s.tlbData = pn, p.data
	}
	return p.data
}

// Write stores data at address a.
func (s *Space) Write(a Addr, data []byte) error {
	if !s.mapped(a, len(data)) {
		return s.faultAccess(a, len(data), true)
	}
	off := 0
	for off < len(data) {
		cur := a + Addr(off)
		pn := pageNum(cur)
		po := int(cur) & (PageSize - 1)
		n := copy(s.writablePage(pn)[po:], data[off:])
		off += n
	}
	return nil
}

// Fill writes n copies of byte b starting at address a. The inner loop is
// chunked: zero fills use the runtime's memclr, other bytes seed the first
// byte and double the filled prefix with copy.
func (s *Space) Fill(a Addr, b byte, n int) error {
	if !s.mapped(a, n) {
		return s.faultAccess(a, n, true)
	}
	off := 0
	for off < n {
		cur := a + Addr(off)
		pn := pageNum(cur)
		po := int(cur) & (PageSize - 1)
		data := s.writablePage(pn)[po:]
		span := len(data)
		if span > n-off {
			span = n - off
		}
		chunk := data[:span]
		if b == 0 {
			clear(chunk)
		} else {
			chunk[0] = b
			for i := 1; i < span; i *= 2 {
				copy(chunk[i:], chunk[:i])
			}
		}
		off += span
	}
	return nil
}

// ReadU32 loads a little-endian 32-bit word. Aligned loads from a resident
// page — the boundary-tag case — take a direct fast path: TLB hit or one
// two-level page-table probe, then a 4-byte load.
func (s *Space) ReadU32(a Addr) (uint32, error) {
	if a&3 == 0 && !s.slow && s.wordMapped(a) {
		pn := a >> pageShift
		if s.tlbData != nil && pn == s.tlbPage {
			return binary.LittleEndian.Uint32(s.tlbData[a&(PageSize-1):]), nil
		}
		if p := s.pageAt(pn); p != nil {
			return binary.LittleEndian.Uint32(p.data[a&(PageSize-1):]), nil
		}
		return 0, s.faultAccess(a, 4, false)
	}
	return s.readU32Slow(a)
}

// readU32Slow is the original byte-assembly path (unaligned words, or fast
// paths disabled).
func (s *Space) readU32Slow(a Addr) (uint32, error) {
	var buf [4]byte
	if err := s.ReadInto(a, buf[:]); err != nil {
		return 0, err
	}
	return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24, nil
}

// WriteU32 stores a little-endian 32-bit word. An aligned store through the
// micro-TLB is a bounds check and a direct 4-byte store; a TLB miss on a
// resident page runs the COW machinery once and caches the result.
func (s *Space) WriteU32(a Addr, v uint32) error {
	if a&3 == 0 && !s.slow && s.wordMapped(a) {
		pn := a >> pageShift
		if s.tlbData != nil && pn == s.tlbPage {
			binary.LittleEndian.PutUint32(s.tlbData[a&(PageSize-1):], v)
			return nil
		}
		if s.pageAt(pn) != nil {
			binary.LittleEndian.PutUint32(s.writablePage(pn)[a&(PageSize-1):], v)
			return nil
		}
		return s.faultAccess(a, 4, true)
	}
	return s.writeU32Slow(a, v)
}

// writeU32Slow is the original byte path (unaligned words, or fast paths
// disabled).
func (s *Space) writeU32Slow(a Addr, v uint32) error {
	buf := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return s.Write(a, buf[:])
}

// TakeDirty returns the number of COW page copies performed since the last
// call and resets the counter. The checkpoint manager uses this as the COW
// page rate that drives the adaptive checkpointing interval (paper §3).
func (s *Space) TakeDirty() uint64 {
	d := s.dirty
	s.dirty = 0
	return d
}

// DirtyPages returns the COW copy count without resetting it.
func (s *Space) DirtyPages() uint64 { return s.dirty }

// Clone returns a fully independent deep copy of the Space: every mapped
// page is duplicated, so the clone can be handed to another goroutine with
// zero sharing. CloneCOW is the cheap variant used for validation clones;
// the deep copy remains the reference implementation the differential
// tests compare against. Clone must be called while no other goroutine is
// using the Space.
func (s *Space) Clone() *Space {
	cp := s.cloneShell()
	cp.mmaps = make(map[Addr]uint32, len(s.mmaps))
	for k, v := range s.mmaps {
		cp.mmaps[k] = v
	}
	for li, l := range s.root {
		if l == nil {
			continue
		}
		nl := &leaf{n: l.n}
		nl.refs.Store(1)
		for i, p := range l.pages {
			if p != nil {
				np := &page{data: append([]byte(nil), p.data...)}
				np.refs.Store(1)
				nl.pages[i] = np
			}
		}
		cp.root[li] = nl
	}
	return cp
}

// CloneCOW returns an independent Space that shares every leaf with s
// copy-on-write: setup copies the root and takes a reference per leaf —
// the paper's fork-like snapshot — and each side copies a leaf and a page
// the first time it writes them. The clone may run on another goroutine
// immediately (the parallel validation substrate). CloneCOW must be called
// while no other goroutine is using s.
func (s *Space) CloneCOW() *Space {
	cp := s.cloneShell()
	copy(cp.root, s.root)
	for _, l := range cp.root {
		if l != nil {
			l.refs.Add(1)
		}
	}
	cp.mmaps, cp.mmapsShared = s.mmaps, true
	s.mmapsShared = true
	// Our leaves are shared now: a stale TLB entry would let WriteU32
	// bypass the COW check and scribble on the clone's view.
	s.tlbData = nil
	return cp
}

// Release drops every leaf reference the Space holds — its own root and
// its live snapshots' — the CloneCOW dual of Snapshot.Release. Once a
// finished clone is released, the Space it was cloned from holds its
// leaves and pages alone again, so its next writes copy nothing, and the
// frames it later drops reach its freelists instead of staying pinned by
// a dead clone. Pages whose last reference the released Space held go to
// its own freelists, which die with it. The Space and its snapshots must
// not be used afterwards; Release must be called while no other goroutine
// is using the Space.
func (s *Space) Release() {
	for len(s.snaps) > 0 {
		s.snaps[len(s.snaps)-1].Release()
	}
	for li, l := range s.root {
		if l != nil {
			s.dropLeaf(l)
			s.root[li] = nil
		}
	}
	s.root = nil
	s.resident = 0
	s.tlbData = nil
}

// cloneShell copies every field of the Space but the leaves and the mmap
// table: break, limit, budget, stats and an empty root of the same length.
// (An earlier version dropped budget and everMapd, so any Map in a
// validation clone failed with ErrOutOfMemory — see TestCloneKeepsBudget.)
func (s *Space) cloneShell() *Space {
	return &Space{
		root:       make([]*leaf, len(s.root)),
		resident:   s.resident,
		brk:        s.brk,
		limit:      s.limit,
		everMapd:   s.everMapd,
		slow:       s.slow,
		mmapCursor: s.mmapCursor,
		mmapBytes:  s.mmapBytes,
		budget:     s.budget,
		mmapEpoch:  s.mmapEpoch,
		mmapSeq:    s.mmapSeq,
	}
}

// Snapshot captures the current contents of the Space. Taking a snapshot
// copies the root and takes a reference per leaf; leaves and pages are
// shared copy-on-write, so the memory cost of holding a snapshot is the
// number of pages subsequently dirtied — the quantity reported in Table 7
// of the paper.
type Snapshot struct {
	owner      *Space
	root       []*leaf
	captured   uint64 // mapped page count at snapshot time
	brk        Addr
	mmapCursor Addr
	mmaps      map[Addr]uint32 // shared with the Space until it maps or unmaps
	mmapBytes  uint64
	mmapEpoch  uint64
}

// Snapshot records the current state for a later Restore.
func (s *Space) Snapshot() *Snapshot {
	root := make([]*leaf, len(s.root))
	copy(root, s.root)
	for _, l := range root {
		if l != nil {
			l.refs.Add(1)
		}
	}
	s.trc.Emit(trace.KSnapshot, s.resident, 0)
	s.mmapsShared = true
	snap := &Snapshot{
		owner:      s,
		root:       root,
		captured:   s.resident,
		brk:        s.brk,
		mmapCursor: s.mmapCursor,
		mmaps:      s.mmaps,
		mmapBytes:  s.mmapBytes,
		mmapEpoch:  s.mmapEpoch,
	}
	s.snaps = append(s.snaps, snap)
	// Every leaf is shared with the snapshot now; the TLB's "exclusively
	// owned" premise no longer holds.
	s.tlbData = nil
	return snap
}

// Restore rewinds the Space to the snapshot's state. The snapshot remains
// valid and may be restored again (diagnosis rolls back to the same
// checkpoint many times).
//
// Cost is O(root slots) plus the leaves dropped, not O(pages): the root is
// pointed back at the snapshot's leaves, so only slots whose leaf was
// copied, added or removed since the snapshot change, and the leaves they
// drop go back to the freelists.
func (s *Space) Restore(snap *Snapshot) {
	s.tlbData = nil
	s.growRoot(len(snap.root))
	for li, cur := range s.root {
		var want *leaf
		if li < len(snap.root) {
			want = snap.root[li]
		}
		if cur == want {
			continue
		}
		if want != nil {
			want.refs.Add(1)
		}
		s.root[li] = want
		if cur != nil {
			s.dropLeaf(cur)
		}
	}
	s.root = s.root[:len(snap.root)]
	s.resident = snap.captured
	s.trc.Emit(trace.KRestore, snap.captured, 0)
	s.brk = snap.brk
	s.mmapCursor = snap.mmapCursor
	if s.mmapEpoch != snap.mmapEpoch {
		s.mmaps, s.mmapsShared = snap.mmaps, true
		s.mmapBytes = snap.mmapBytes
		s.mmapEpoch = snap.mmapEpoch
	}
}

// Release drops the snapshot's leaf references so its pages can be
// recycled. The snapshot must not be used afterwards.
func (snap *Snapshot) Release() {
	s := snap.owner
	for _, l := range snap.root {
		if l != nil {
			s.dropLeaf(l)
		}
	}
	snap.root = nil
	for i, sn := range s.snaps {
		if sn == snap {
			s.snaps = append(s.snaps[:i], s.snaps[i+1:]...)
			break
		}
	}
}

// Bytes returns the number of bytes of heap captured by the snapshot.
func (snap *Snapshot) Bytes() uint64 { return uint64(snap.brk - HeapBase) }

// UniqueBytes returns the number of bytes held by pages that are, at call
// time, referenced only through snapshots (refs recorded at snapshot time
// is not tracked per holder; this reports pages*PageSize as an upper bound
// for accounting displays).
func (snap *Snapshot) UniqueBytes() uint64 {
	return snap.captured * PageSize
}
