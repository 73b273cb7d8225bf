package vmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCloneDeepCopies(t *testing.T) {
	s := New(1 << 22)
	base, _ := s.Sbrk(4 * PageSize)
	s.Write(base, []byte("shared past"))

	c := s.Clone()
	if c.Brk() != s.Brk() {
		t.Fatal("brk differs")
	}
	got, err := c.Read(base, 11)
	if err != nil || string(got) != "shared past" {
		t.Fatalf("clone contents: %q, %v", got, err)
	}

	// Divergent futures.
	s.Write(base, []byte("original!!!"))
	c.Write(base+PageSize, []byte("clone only"))
	if g, _ := c.Read(base, 11); string(g) != "shared past" {
		t.Fatalf("clone saw original's write: %q", g)
	}
	if g, _ := s.Read(base+PageSize, 10); string(g) == "clone only" {
		t.Fatal("original saw clone's write")
	}
	// Independent growth.
	if _, err := c.Sbrk(PageSize); err != nil {
		t.Fatal(err)
	}
	if s.Brk() == c.Brk() {
		t.Fatal("growth not independent")
	}
}

func TestCloneIsConcurrencySafe(t *testing.T) {
	s := New(1 << 22)
	base, _ := s.Sbrk(16 * PageSize)
	s.Fill(base, 0xAA, 16*PageSize)
	c := s.Clone()

	// Hammer both spaces from different goroutines: with deep-copied
	// pages there is no shared mutable state, so the race detector must
	// stay quiet.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			s.Write(base+Addr(i%(15*PageSize)), []byte{byte(i)})
			snap := s.Snapshot()
			s.Restore(snap)
			snap.Release()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.Write(base+Addr(i%(15*PageSize)), []byte{byte(i + 1)})
			snap := c.Snapshot()
			c.Restore(snap)
			snap.Release()
		}
	}()
	wg.Wait()
}

// TestCloneKeepsBudget is the regression test for the Clone bug this PR
// fixes: the cloned Space dropped budget (and everMapd), so the very first
// Map in a validation clone failed with ErrOutOfMemory even though the
// parent had hundreds of megabytes of headroom.
func TestCloneKeepsBudget(t *testing.T) {
	s := New(64 << 20)
	if _, err := s.Sbrk(4 * PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(1 << 20); err != nil {
		t.Fatalf("Map in parent: %v", err)
	}
	for name, c := range map[string]*Space{"deep": s.Clone(), "cow": s.CloneCOW()} {
		a, err := c.Map(8 << 20) // a large block, well within the budget
		if err != nil {
			t.Fatalf("%s clone: Map(8 MiB) = %v, budget was dropped", name, err)
		}
		if err := c.Fill(a, 0x5A, 8<<20); err != nil {
			t.Fatalf("%s clone: mapped block unusable: %v", name, err)
		}
		if c.EverMapped() < s.EverMapped() {
			t.Fatalf("%s clone: everMapd %d < parent %d", name, c.EverMapped(), s.EverMapped())
		}
	}
}

func TestCloneCOWIsolation(t *testing.T) {
	s := New(1 << 22)
	base, _ := s.Sbrk(4 * PageSize)
	s.Write(base, []byte("shared past"))

	c := s.CloneCOW()
	got, err := c.Read(base, 11)
	if err != nil || string(got) != "shared past" {
		t.Fatalf("clone contents: %q, %v", got, err)
	}

	// Divergent futures: each side COWs its own copy.
	s.Write(base, []byte("original!!!"))
	c.Write(base+PageSize, []byte("clone only"))
	if g, _ := c.Read(base, 11); string(g) != "shared past" {
		t.Fatalf("clone saw original's write: %q", g)
	}
	if g, _ := s.Read(base+PageSize, 10); string(g) == "clone only" {
		t.Fatal("original saw clone's write")
	}
	if g, _ := s.Read(base, 11); string(g) != "original!!!" {
		t.Fatalf("original lost its own write: %q", g)
	}
}

// TestCloneCOWDoesNotPerturbDirtyAccounting pins the determinism property
// the supervisor depends on: COW copies forced purely by a clone's shared
// pages are not counted as dirty pages (and the checkpoint interval, which
// feeds on the dirty rate, therefore cannot depend on validation-goroutine
// lifetime).
func TestCloneCOWDoesNotPerturbDirtyAccounting(t *testing.T) {
	run := func(clone bool) uint64 {
		s := New(1 << 22)
		base, _ := s.Sbrk(16 * PageSize)
		snap := s.Snapshot()
		defer snap.Release()
		s.TakeDirty()
		if clone {
			_ = s.CloneCOW()
		}
		for pg := 0; pg < 8; pg++ {
			s.WriteU32(base+Addr(pg*PageSize), 1)
		}
		return s.TakeDirty()
	}
	without, with := run(false), run(true)
	if without != with {
		t.Fatalf("dirty count depends on a live clone: %d without, %d with", without, with)
	}
	if without != 8 {
		t.Fatalf("dirty count = %d, want 8", without)
	}
}

// TestCOWCloneStress is the -race stress test for the COW protocol at both
// table levels: N clones write into shared pages — some writes straddling
// a leaf boundary — snapshot and restore on their own, and Map, fill and
// Unmap regions that span leaves, while the parent dirties the same pages,
// cycles snapshots and maps and unmaps regions of its own, and releases
// short-lived clones of its own. The clones also read shared frames in
// place (Mismatches). Every space must end with exactly the bytes it
// wrote, and once every clone is released the parent must hold each of
// its leaves and pages alone.
func TestCOWCloneStress(t *testing.T) {
	const (
		clones = 4
		pages  = 3 * leafPages / 2 // the heap spans a leaf boundary
		iters  = 1500
		region = (leafPages + 8) * PageSize
	)
	s := New(64 << 20)
	base, _ := s.Sbrk(pages * PageSize)
	s.Fill(base, 0xEE, pages*PageSize)
	// Where the heap crosses from its first leaf into the next.
	boundary := Addr(leafPages*PageSize) - base%(leafPages*PageSize) + base
	kept, err := s.Map(region)
	if err != nil {
		t.Fatal(err)
	}
	s.Fill(kept, 0x77, region)

	work := make([]*Space, clones)
	for i := range work {
		work[i] = s.CloneCOW()
	}

	var wg sync.WaitGroup
	for i, c := range work {
		wg.Add(1)
		go func(id byte, c *Space) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := base + Addr(i%pages)*PageSize + Addr(4*(int(id)+1))
				c.WriteU32(a, uint32(id)<<24|uint32(i))
				if i%64 == 0 {
					snap := c.Snapshot()
					c.WriteU32(a, 0xDDDDDDDD)
					c.Restore(snap)
					snap.Release()
				}
				if v, err := c.ReadU32(a); err != nil || v != uint32(id)<<24|uint32(i) {
					t.Errorf("clone %d: read back %#x, %v", id, v, err)
					return
				}
				if i%50 == 0 {
					straddle := []byte{id, id, id, id, id, id, id, id}
					if err := c.Write(boundary-4, straddle); err != nil {
						t.Errorf("clone %d: write across leaf boundary: %v", id, err)
						return
					}
					if got, _ := c.Read(boundary-4, 8); string(got) != string(straddle) {
						t.Errorf("clone %d: read across leaf boundary: %v", id, got)
						return
					}
				}
				if i%150 == 0 {
					m, err := c.Map(region)
					if err != nil {
						t.Errorf("clone %d: Map: %v", id, err)
						return
					}
					c.Fill(m, id, region)
					if v, err := c.ReadU32(m + region - 4); err != nil || v != uint32(id)*0x01010101 {
						t.Errorf("clone %d: mapped region tail %#x, %v", id, v, err)
						return
					}
					if err := c.Unmap(m); err != nil {
						t.Errorf("clone %d: Unmap: %v", id, err)
						return
					}
					if _, err := c.ReadU32(m); err == nil {
						t.Errorf("clone %d: unmapped region still readable", id)
						return
					}
				}
			}
			if v, err := c.ReadU32(kept + leafPages*PageSize); err != nil || v != 0x77777777 {
				t.Errorf("clone %d: inherited mapping %#x, %v", id, v, err)
			}
			if offs, err := c.Mismatches(kept, region, 0x77); offs != nil || err != nil {
				t.Errorf("clone %d: inherited mapping differs at %v, %v", id, offs, err)
			}
		}(byte(i+1), c)
	}
	// The parent cycles snapshots and restores while the clones run, and
	// maps and unmaps regions that span leaves.
	for i := 0; i < iters; i++ {
		snap := s.Snapshot()
		s.WriteU32(base+Addr(i%pages)*PageSize, uint32(i))
		if i%40 == 0 {
			m, err := s.Map(region)
			if err != nil {
				t.Fatal(err)
			}
			s.Fill(m, 0x99, region)
			if i%80 == 0 {
				s.Unmap(m)
			}
		}
		if i%3 == 0 {
			s.Restore(snap)
		}
		snap.Release()
		if i%25 == 0 {
			c := s.CloneCOW()
			c.Snapshot()
			c.WriteU32(base+Addr(i%pages)*PageSize, uint32(i))
			c.Release()
		}
	}
	wg.Wait()
	for _, c := range work {
		c.Release()
	}
	for li, l := range s.root {
		if l == nil {
			continue
		}
		if r := l.refs.Load(); r != 1 {
			t.Fatalf("parent leaf %d has %d references after every clone was released", li, r)
		}
		for pi, p := range l.pages {
			if p != nil && p.refs.Load() != 1 {
				t.Fatalf("parent page %d of leaf %d has %d references after every clone was released", pi, li, p.refs.Load())
			}
		}
	}
	for i := 0; i < pages; i++ {
		if v, err := s.ReadU32(base + Addr(i)*PageSize + 2048); err != nil || v != 0xEEEEEEEE {
			t.Fatalf("parent page %d tail: %#x, %v (clone write leaked)", i, v, err)
		}
	}
	if v, err := s.ReadU32(boundary - 4); err != nil || v != 0xEEEEEEEE {
		t.Fatalf("parent word at the leaf boundary: %#x, %v (clone write leaked)", v, err)
	}
	if v, err := s.ReadU32(kept + region - 4); err != nil || v != 0x77777777 {
		t.Fatalf("parent mapping tail: %#x, %v (clone write leaked)", v, err)
	}
}

// TestQuickCOWMatchesDeepCopy is the differential property of the
// two-level table: any interleaving of writes (some across leaf
// boundaries), Sbrk, Map, Unmap, Snapshot, Restore, Release and CloneCOW
// reads back exactly what a reference reads that runs the same operations
// with the fast paths off and a deep Clone in place of every CloneCOW —
// the SlowMemPaths configuration — down to faults and dirty-page counts.
func TestQuickCOWMatchesDeepCopy(t *testing.T) {
	type side struct {
		spaces []*Space
		snaps  [][]*Snapshot
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		heap := uint32(leafPages+rng.Intn(leafPages)) * PageSize
		cow, ref := &side{}, &side{}
		for _, sd := range []*side{cow, ref} {
			s := New(16 << 20)
			s.SetFastPaths(sd == cow)
			s.Sbrk(heap)
			sd.spaces, sd.snaps = []*Space{s}, [][]*Snapshot{nil}
		}
		regions := [][]Addr{nil} // live Map regions per space
		fail := func(format string, args ...interface{}) bool {
			t.Logf("seed %d: "+format, append([]interface{}{seed}, args...)...)
			return false
		}
		for op := 0; op < 300; op++ {
			k := rng.Intn(len(cow.spaces))
			c, r := cow.spaces[k], ref.spaces[k]
			switch x := rng.Intn(100); {
			case x < 45: // write, often across a leaf boundary
				var a Addr
				if rng.Intn(3) == 0 {
					a = HeapBase + Addr(leafPages*PageSize) - Addr(rng.Intn(16))
				} else {
					a = HeapBase + Addr(rng.Intn(int(c.Brk()-HeapBase)+PageSize))
				}
				if len(regions[k]) > 0 && rng.Intn(3) == 0 {
					a = regions[k][rng.Intn(len(regions[k]))] + Addr(rng.Intn(2*PageSize))
				}
				buf := make([]byte, 1+rng.Intn(2*PageSize))
				rng.Read(buf)
				ec, er := c.Write(a, buf), r.Write(a, buf)
				if (ec == nil) != (er == nil) {
					return fail("write %#x+%d: %v vs %v", a, len(buf), ec, er)
				}
			case x < 50:
				n := uint32(rng.Intn(leafPages)) * PageSize
				ac, ec := c.Sbrk(n)
				ar, er := r.Sbrk(n)
				if ac != ar || (ec == nil) != (er == nil) {
					return fail("sbrk %d: %#x %v vs %#x %v", n, ac, ec, ar, er)
				}
			case x < 58:
				n := uint32(1+rng.Intn(leafPages+8)) * PageSize
				ac, ec := c.Map(n)
				ar, er := r.Map(n)
				if ac != ar || (ec == nil) != (er == nil) {
					return fail("map %d: %#x %v vs %#x %v", n, ac, ec, ar, er)
				}
				if ec == nil {
					regions[k] = append(regions[k], ac)
				}
			case x < 63:
				if len(regions[k]) == 0 {
					continue
				}
				i := rng.Intn(len(regions[k]))
				a := regions[k][i]
				regions[k] = append(regions[k][:i], regions[k][i+1:]...)
				ec, er := c.Unmap(a), r.Unmap(a)
				if (ec == nil) != (er == nil) {
					return fail("unmap %#x: %v vs %v", a, ec, er)
				}
			case x < 75:
				cow.snaps[k] = append(cow.snaps[k], c.Snapshot())
				ref.snaps[k] = append(ref.snaps[k], r.Snapshot())
			case x < 85:
				if len(cow.snaps[k]) == 0 {
					continue
				}
				i := rng.Intn(len(cow.snaps[k]))
				c.Restore(cow.snaps[k][i])
				r.Restore(ref.snaps[k][i])
				// Restore rewinds the Map table too; forget regions the
				// check below finds gone.
				kept := regions[k][:0]
				for _, a := range regions[k] {
					if _, ok := c.MappedRegion(a); ok {
						kept = append(kept, a)
					}
				}
				regions[k] = kept
			case x < 92:
				if len(cow.snaps[k]) == 0 {
					continue
				}
				i := rng.Intn(len(cow.snaps[k]))
				cow.snaps[k][i].Release()
				ref.snaps[k][i].Release()
				cow.snaps[k] = append(cow.snaps[k][:i], cow.snaps[k][i+1:]...)
				ref.snaps[k] = append(ref.snaps[k][:i], ref.snaps[k][i+1:]...)
			default:
				if len(cow.spaces) == 4 {
					continue
				}
				cow.spaces = append(cow.spaces, c.CloneCOW())
				ref.spaces = append(ref.spaces, r.Clone())
				cow.snaps = append(cow.snaps, nil)
				ref.snaps = append(ref.snaps, nil)
				regions = append(regions, append([]Addr(nil), regions[k]...))
			}
			if c.DirtyPages() != r.DirtyPages() {
				return fail("op %d: dirty pages %d vs %d", op, c.DirtyPages(), r.DirtyPages())
			}
		}
		for k := range cow.spaces {
			if msg := sameImage(cow.spaces[k], ref.spaces[k]); msg != "" {
				return fail("space %d: %s", k, msg)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sameImage compares two spaces page by page over both zones: which pages
// are mapped, and what they hold.
func sameImage(a, b *Space) string {
	if a.Brk() != b.Brk() || a.MmapBytes() != b.MmapBytes() {
		return fmt.Sprintf("brk %#x/%#x, mmap bytes %d/%d", a.Brk(), b.Brk(), a.MmapBytes(), b.MmapBytes())
	}
	end := max(a.mmapCursor, b.mmapCursor)
	for pg := HeapBase; pg < end; pg += PageSize {
		if pg >= a.Brk() && pg < MmapBase {
			pg = MmapBase - PageSize
			continue
		}
		n := PageSize
		if pg < MmapBase && a.Brk()-pg < PageSize {
			n = int(a.Brk() - pg)
		}
		da, ea := a.Read(pg, n)
		db, eb := b.Read(pg, n)
		if (ea == nil) != (eb == nil) || !bytes.Equal(da, db) {
			return fmt.Sprintf("page %#x differs (errors %v, %v)", pg, ea, eb)
		}
	}
	return ""
}
