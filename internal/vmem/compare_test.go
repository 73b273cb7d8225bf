package vmem

import (
	"reflect"
	"testing"

	"firstaid/internal/trace"
)

// readMismatches is the reference Mismatches: copy the range through Read
// and compare a byte at a time.
func readMismatches(s *Space, a Addr, n int, b byte) ([]int, error) {
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

// traced runs f on s with a fresh tracer attached and returns the kinds
// and arguments of the records it emitted.
func traced(s *Space, f func()) [][3]uint64 {
	tr := trace.New(64)
	s.SetTracer(tr.Emitter(0, nil))
	defer s.SetTracer(trace.Emitter{})
	f()
	var out [][3]uint64
	for _, r := range tr.Snapshot() {
		out = append(out, [3]uint64{uint64(r.Kind), r.Arg1, r.Arg2})
	}
	return out
}

// TestMismatchesMatchesRead pins the in-place walk to the Read-based
// reference case by case, with the fast paths on and off: intact ranges,
// differences on both sides of page and leaf boundaries, and every way a
// range can fault — below the heap, past the break, past a Map region into
// its guard page, and through the guard page between two Map regions —
// down to the AccessError and the KPageFault record.
func TestMismatchesMatchesRead(t *testing.T) {
	const pat = 0xCD
	s := New(16 << 20)
	heap := uint32(leafPages+3)*PageSize + 100
	base, _ := s.Sbrk(heap)
	s.Fill(base, pat, int(heap))
	leafEdge := HeapBase + leafPages*PageSize
	s.Write(leafEdge-1, []byte{0})
	s.Write(leafEdge, []byte{1, 2})
	s.Write(base+PageSize-3, []byte{7})
	s.Write(base+PageSize+2, []byte{9})
	m1, _ := s.Map(2 * PageSize)
	m2, _ := s.Map(PageSize)
	s.Fill(m1, pat, 2*PageSize)
	s.Fill(m2, pat, PageSize)
	s.Write(m1+PageSize+5, []byte{0})

	cases := []struct {
		name string
		a    Addr
		n    int
		diff bool // some byte differs
		bad  bool // faults
	}{
		{"empty", base, 0, false, false},
		{"intact page", base + 3*PageSize, PageSize, false, false},
		{"intact three pages", base + 3*PageSize + 17, 3 * PageSize, false, false},
		{"differs across a page boundary", base + PageSize - 8, 16, true, false},
		{"differs across a leaf boundary", leafEdge - 2*PageSize, 4 * PageSize, true, false},
		{"Map region", m1, 2 * PageSize, true, false},
		{"below the heap", HeapBase - 8, 16, false, true},
		{"past the break", base + Addr(heap) - 4, 8, false, true},
		{"into a Map guard page", m2 + PageSize - 8, 16, false, true},
		{"through the guard between Map regions", m1 + PageSize, 3 * PageSize, false, true},
		{"top of the address space", 0xFFFF_FFF0, 32, false, true},
	}
	for _, fast := range []bool{true, false} {
		s.SetFastPaths(fast)
		for _, tc := range cases {
			var got, want []int
			var gerr, werr error
			gtr := traced(s, func() { got, gerr = s.Mismatches(tc.a, tc.n, pat) })
			wtr := traced(s, func() { want, werr = readMismatches(s, tc.a, tc.n, pat) })
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gerr, werr) {
				t.Fatalf("fast=%v %s: Mismatches = %v, %v; Read reference = %v, %v", fast, tc.name, got, gerr, want, werr)
			}
			if !reflect.DeepEqual(gtr, wtr) {
				t.Fatalf("fast=%v %s: traced %v, Read traced %v", fast, tc.name, gtr, wtr)
			}
			if (len(got) > 0) != tc.diff || (gerr != nil) != tc.bad {
				t.Fatalf("fast=%v %s: offsets %v, error %v; case wants differences=%v fault=%v", fast, tc.name, got, gerr, tc.diff, tc.bad)
			}
		}
	}
}

// TestReleasedCloneUnsharesParent: once a clone (with a snapshot of its
// own, and a page it dirtied) is released, the parent's leaves and pages
// are its alone again, so a parent write copies no leaf, no page, and
// allocates nothing. Without the release the same write copies the leaf.
func TestReleasedCloneUnsharesParent(t *testing.T) {
	s := New(1 << 22)
	base, _ := s.Sbrk(4 * PageSize)
	s.Fill(base, 0x11, 4*PageSize)
	leafOf := func() *leaf { return s.root[pageNum(base)>>leafShift] }

	kept := s.CloneCOW()
	before := leafOf()
	s.WriteU32(base, 1)
	if leafOf() == before {
		t.Fatal("a write into a leaf shared with a live clone copied nothing: the test has no teeth")
	}
	kept.Release()

	c := s.CloneCOW()
	c.Snapshot()
	c.WriteU32(base+PageSize, 2) // the clone's own leaf and page copy
	c.Release()
	l, p := leafOf(), s.pageAt(pageNum(base+2*PageSize))
	allocs := testing.AllocsPerRun(50, func() {
		s.WriteU32(base+2*PageSize, 3)
		s.Write(base+3*PageSize-2, []byte{4, 5, 6, 7})
	})
	if allocs != 0 {
		t.Fatalf("parent write after Release allocates %.1f times, want 0", allocs)
	}
	if leafOf() != l || s.pageAt(pageNum(base+2*PageSize)) != p {
		t.Fatal("parent write after Release copied its leaf or page")
	}
	if l.refs.Load() != 1 || p.refs.Load() != 1 {
		t.Fatalf("leaf refs %d, page refs %d after Release, want 1 and 1", l.refs.Load(), p.refs.Load())
	}
	if v, _ := s.ReadU32(base + PageSize); v != 0x11111111 {
		t.Fatalf("parent reads %#x where only the clone wrote", v)
	}
}
