package vmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSbrkGrowsAndZeroFills(t *testing.T) {
	s := New(1 << 20)
	base, err := s.Sbrk(100)
	if err != nil {
		t.Fatalf("Sbrk: %v", err)
	}
	if base != HeapBase {
		t.Fatalf("first Sbrk returned %#x, want %#x", base, HeapBase)
	}
	got, err := s.Read(base, 100)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d not zero: %#x", i, b)
		}
	}
	if s.Brk() != HeapBase+100 {
		t.Fatalf("brk = %#x, want %#x", s.Brk(), HeapBase+100)
	}
}

func TestSbrkZeroReturnsBrk(t *testing.T) {
	s := New(1 << 20)
	if _, err := s.Sbrk(10); err != nil {
		t.Fatal(err)
	}
	a, err := s.Sbrk(0)
	if err != nil || a != s.Brk() {
		t.Fatalf("Sbrk(0) = %#x, %v; want %#x, nil", a, err, s.Brk())
	}
}

func TestSbrkLimit(t *testing.T) {
	s := New(PageSize)
	if _, err := s.Sbrk(PageSize); err != nil {
		t.Fatalf("within limit: %v", err)
	}
	if _, err := s.Sbrk(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("beyond limit: got %v, want ErrOutOfMemory", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(4 * PageSize)
	data := make([]byte, 2*PageSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Straddle a page boundary deliberately.
	at := base + PageSize - 9
	if err := s.Write(at, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := s.Read(at, len(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(64)
	cases := []struct {
		name  string
		addr  Addr
		n     int
		write bool
	}{
		{"below heap base", HeapBase - 8, 4, false},
		{"nil pointer", 0, 4, false},
		{"beyond brk", base + 64, 1, true},
		{"straddles brk", base + 60, 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.write {
				err = s.Write(tc.addr, make([]byte, tc.n))
			} else {
				_, err = s.Read(tc.addr, tc.n)
			}
			if !errors.Is(err, ErrUnmapped) {
				t.Fatalf("got %v, want ErrUnmapped", err)
			}
			var ae *AccessError
			if !errors.As(err, &ae) {
				t.Fatalf("error is not *AccessError: %v", err)
			}
			if ae.Addr != tc.addr || ae.Write != tc.write {
				t.Fatalf("fault describes %#x write=%v, want %#x write=%v", ae.Addr, ae.Write, tc.addr, tc.write)
			}
		})
	}
}

func TestAccessErrorMessage(t *testing.T) {
	e := &AccessError{Addr: 0x1234, Len: 4, Write: true}
	if e.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestU32RoundTrip(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(PageSize)
	const v = 0xDEADBEEF
	if err := s.WriteU32(base+12, v); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadU32(base + 12)
	if err != nil || got != v {
		t.Fatalf("ReadU32 = %#x, %v; want %#x", got, err, v)
	}
	// Little-endian layout.
	b, _ := s.Read(base+12, 4)
	if b[0] != 0xEF || b[3] != 0xDE {
		t.Fatalf("not little-endian: % x", b)
	}
}

func TestFill(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(2 * PageSize)
	at := base + PageSize - 100
	if err := s.Fill(at, 0xAB, 300); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(at, 300)
	for i, b := range got {
		if b != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, b)
		}
	}
	// Neighbours untouched.
	before, _ := s.Read(at-1, 1)
	after, _ := s.Read(at+300, 1)
	if before[0] != 0 || after[0] != 0 {
		t.Fatal("Fill bled outside its range")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(4 * PageSize)
	s.Write(base, []byte("original"))
	snap := s.Snapshot()
	defer snap.Release()

	s.Write(base, []byte("mutated!"))
	s.Sbrk(PageSize) // grow after snapshot

	s.Restore(snap)
	got, err := s.Read(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("after restore: %q", got)
	}
	if s.Brk() != base+4*PageSize {
		t.Fatalf("brk not restored: %#x", s.Brk())
	}
}

func TestSnapshotIsStableWhileSpaceMutates(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(PageSize)
	s.Write(base, []byte{1, 2, 3})
	snap := s.Snapshot()
	defer snap.Release()
	s.Fill(base, 0xFF, PageSize)

	// Restoring must bring back the pre-mutation bytes even though the
	// live space overwrote the whole page.
	s.Restore(snap)
	got, _ := s.Read(base, 3)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("snapshot corrupted by post-snapshot writes: % x", got)
	}
}

func TestRestoreSameSnapshotTwice(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(PageSize)
	s.WriteU32(base, 42)
	snap := s.Snapshot()
	defer snap.Release()

	for i := 0; i < 3; i++ {
		s.WriteU32(base, uint32(100+i))
		s.Restore(snap)
		v, _ := s.ReadU32(base)
		if v != 42 {
			t.Fatalf("iteration %d: restored value %d, want 42", i, v)
		}
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(PageSize)
	s.WriteU32(base, 1)
	s1 := s.Snapshot()
	s.WriteU32(base, 2)
	s2 := s.Snapshot()
	s.WriteU32(base, 3)

	s.Restore(s2)
	if v, _ := s.ReadU32(base); v != 2 {
		t.Fatalf("restore s2: %d", v)
	}
	s.Restore(s1)
	if v, _ := s.ReadU32(base); v != 1 {
		t.Fatalf("restore s1: %d", v)
	}
	// s2 must still be intact after restoring s1.
	s.Restore(s2)
	if v, _ := s.ReadU32(base); v != 2 {
		t.Fatalf("re-restore s2: %d", v)
	}
	s1.Release()
	s2.Release()
}

func TestDirtyPageAccounting(t *testing.T) {
	s := New(1 << 20)
	base, _ := s.Sbrk(8 * PageSize)
	s.TakeDirty()
	snap := s.Snapshot()
	defer snap.Release()

	// Touch three distinct pages; each first write after the snapshot
	// must copy exactly one page.
	for i := 0; i < 3; i++ {
		s.Write(base+Addr(i)*PageSize, []byte{1})
	}
	// Touching the same page again is free.
	s.Write(base, []byte{2})
	if d := s.TakeDirty(); d != 3 {
		t.Fatalf("dirty pages = %d, want 3", d)
	}
	if d := s.TakeDirty(); d != 0 {
		t.Fatalf("counter not reset: %d", d)
	}
}

func TestSnapshotBytes(t *testing.T) {
	s := New(1 << 20)
	s.Sbrk(5 * PageSize)
	snap := s.Snapshot()
	defer snap.Release()
	if snap.Bytes() != 5*PageSize {
		t.Fatalf("Bytes = %d", snap.Bytes())
	}
	if snap.UniqueBytes() != 5*PageSize {
		t.Fatalf("UniqueBytes = %d", snap.UniqueBytes())
	}
}

// Property: restoring a snapshot always reproduces the exact byte image
// present when the snapshot was taken, regardless of the interleaving of
// writes, fills, further Sbrks and other snapshots.
func TestQuickSnapshotFidelity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(1 << 22)
		size := uint32(1+rng.Intn(16)) * PageSize
		base, _ := s.Sbrk(size)
		// Random initial contents.
		init := make([]byte, size)
		rng.Read(init)
		s.Write(base, init)

		want := make([]byte, size)
		s.ReadInto(base, want)
		snap := s.Snapshot()
		defer snap.Release()

		// Random mutations.
		for i := 0; i < 50; i++ {
			switch rng.Intn(3) {
			case 0:
				n := rng.Intn(512) + 1
				at := base + uint32(rng.Intn(int(size)-n))
				buf := make([]byte, n)
				rng.Read(buf)
				s.Write(at, buf)
			case 1:
				n := rng.Intn(2048) + 1
				at := base + uint32(rng.Intn(int(size)-n))
				s.Fill(at, byte(rng.Intn(256)), n)
			case 2:
				inner := s.Snapshot()
				s.Fill(base, byte(i), 64)
				s.Restore(inner)
				inner.Release()
			}
		}
		s.Restore(snap)
		got := make([]byte, size)
		s.ReadInto(base, got)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrite64(b *testing.B) {
	s := New(1 << 24)
	base, _ := s.Sbrk(1 << 20)
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(base+Addr(i*64)%(1<<19), buf)
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	s := New(1 << 24)
	base, _ := s.Sbrk(256 * PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := s.Snapshot()
		s.Write(base, []byte{byte(i)})
		s.Restore(snap)
		snap.Release()
	}
}

// TestFastSlowPathEquivalence drives an identical randomized op soup
// through a fast-path Space and a SetFastPaths(false) reference Space and
// demands bit-identical results: values, faults, dirty counts, snapshots.
func TestFastSlowPathEquivalence(t *testing.T) {
	type spacePair struct{ fast, slow *Space }
	p := spacePair{fast: New(1 << 22), slow: New(1 << 22)}
	p.slow.SetFastPaths(false)
	both := func(f func(s *Space) (uint64, error)) {
		t.Helper()
		vf, ef := f(p.fast)
		vs, es := f(p.slow)
		if vf != vs || (ef == nil) != (es == nil) {
			t.Fatalf("fast/slow divergence: (%#x, %v) vs (%#x, %v)", vf, ef, vs, es)
		}
	}
	both(func(s *Space) (uint64, error) { a, err := s.Sbrk(24 * PageSize); return uint64(a), err })

	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545F4914F6CDD1D
	}
	var snapsFast, snapsSlow []*Snapshot
	for i := 0; i < 4000; i++ {
		r := next()
		// Half the addresses are aligned in-bounds words, the rest
		// stress unaligned, beyond-brk and guard-region cases.
		a := Addr(uint32(HeapBase) + uint32(r>>32)%(26*PageSize))
		if r&1 == 0 {
			a &^= 3
		}
		switch r % 7 {
		case 0, 1, 2:
			v := uint32(r >> 13)
			both(func(s *Space) (uint64, error) { return 0, s.WriteU32(a, v) })
		case 3, 4:
			both(func(s *Space) (uint64, error) { v, err := s.ReadU32(a); return uint64(v), err })
		case 5:
			if len(snapsFast) < 4 && r&2 == 0 {
				snapsFast = append(snapsFast, p.fast.Snapshot())
				snapsSlow = append(snapsSlow, p.slow.Snapshot())
			} else if len(snapsFast) > 0 {
				k := int(r>>8) % len(snapsFast)
				p.fast.Restore(snapsFast[k])
				p.slow.Restore(snapsSlow[k])
			}
		case 6:
			both(func(s *Space) (uint64, error) { return 0, s.Fill(a, byte(r>>7), int(r%300)) })
		}
		both(func(s *Space) (uint64, error) { return s.DirtyPages(), nil })
	}
	// Final heap contents must match byte for byte.
	n := int(p.fast.Brk() - HeapBase)
	bf, err := p.fast.Read(HeapBase, n)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := p.slow.Read(HeapBase, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bf, bs) {
		t.Fatal("fast and slow heap images differ")
	}
}

// TestRestoreAcrossMapUnmap exercises the O(dirty) restore path when the
// mmap table changed after the snapshot (the epoch mismatch branch).
func TestRestoreAcrossMapUnmap(t *testing.T) {
	s := New(64 << 20)
	base, _ := s.Sbrk(2 * PageSize)
	keep, err := s.Map(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s.Fill(keep, 0x11, 3*PageSize)
	s.WriteU32(base, 0xAAAA)
	snap := s.Snapshot()
	defer snap.Release()

	// Mutate everything: unmap the old region, map two new ones, dirty
	// the heap.
	if err := s.Unmap(keep); err != nil {
		t.Fatal(err)
	}
	m1, _ := s.Map(PageSize)
	m2, _ := s.Map(5 * PageSize)
	s.Fill(m2, 0x22, 5*PageSize)
	s.WriteU32(base, 0xBBBB)

	s.Restore(snap)
	if v, _ := s.ReadU32(base); v != 0xAAAA {
		t.Fatalf("heap word = %#x, want 0xAAAA", v)
	}
	if v, err := s.ReadU32(keep); err != nil || v != 0x11111111 {
		t.Fatalf("restored mmap region: %#x, %v", v, err)
	}
	if _, err := s.ReadU32(m2); err == nil {
		t.Fatal("post-snapshot mapping survived restore")
	}
	if n, ok := s.MappedRegion(keep); !ok || n != 3*PageSize {
		t.Fatalf("mmap table not restored: (%d, %v)", n, ok)
	}
	if _, ok := s.MappedRegion(m1); ok {
		t.Fatal("mmap table kept post-snapshot region")
	}
	// And the cursor must be rewound so future Maps reuse addresses
	// deterministically.
	m3, _ := s.Map(PageSize)
	if m3 != m1 {
		t.Fatalf("mmap cursor not rewound: %#x vs %#x", m3, m1)
	}
}

// TestFreelistPagesAreZeroed pins the zero-fill guarantee when Sbrk and
// Map recycle frames from the page freelist.
func TestFreelistPagesAreZeroed(t *testing.T) {
	s := New(64 << 20)
	base, _ := s.Sbrk(8 * PageSize)
	s.Fill(base, 0xFF, 8*PageSize)
	snap := s.Snapshot()
	// Dirty every page (COW copies), then restore: the copies' frames
	// land on the freelist full of 0xFF.
	s.Fill(base, 0xFF, 8*PageSize)
	s.Restore(snap)
	snap.Release()

	a, err := s.Sbrk(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := s.Read(a, 4*PageSize)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("recycled Sbrk page byte %d = %#x, want 0", i, b)
		}
	}
	m, err := s.Map(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ = s.Read(m, 2*PageSize)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("recycled Map page byte %d = %#x, want 0", i, b)
		}
	}
}

// TestRestoreLoopStaysBounded pins what the rollback loop of a diagnosis
// session (dirty a few pages, restore, repeat — with the checkpoint held
// live throughout) leaves behind: the root keeps its length and points at
// the snapshot's leaves again, each of those leaves is held by exactly the
// Space and the snapshot, and the freelists stay within their caps. The
// leaves the loop copies are recycled, not leaked, so restores cost the
// same on the 5000th iteration as on the first.
func TestRestoreLoopStaysBounded(t *testing.T) {
	s := New(64 << 20)
	base, _ := s.Sbrk(1 << 20)
	snap := s.Snapshot()
	defer snap.Release()
	rootLen := len(s.root)
	for i := 0; i < 5000; i++ {
		for pg := 0; pg < 8; pg++ {
			s.WriteU32(base+Addr(pg*PageSize*leafPages/4), uint32(i))
		}
		s.Restore(snap)
	}
	if len(s.root) != rootLen {
		t.Fatalf("root grew from %d to %d slots over a repeated-restore loop", rootLen, len(s.root))
	}
	for li, l := range s.root {
		if l != snap.root[li] {
			t.Fatalf("root slot %d does not share the snapshot's leaf after Restore", li)
		}
		if l != nil && l.refs.Load() != 2 {
			t.Fatalf("leaf %d held %d times, want 2 (Space and snapshot)", li, l.refs.Load())
		}
	}
	if len(s.free) > freelistCap || len(s.freeLeaves) > leafFreelistCap {
		t.Fatalf("freelists hold %d frames and %d leaves, caps %d and %d",
			len(s.free), len(s.freeLeaves), freelistCap, leafFreelistCap)
	}
}

// TestSnapshotChainWithCompaction interleaves a ring of snapshots (as the
// checkpoint manager keeps) with restores and releases, checking every
// surviving snapshot still restores exact contents afterwards.
func TestSnapshotChainWithCompaction(t *testing.T) {
	s := New(64 << 20)
	base, _ := s.Sbrk(32 * PageSize)
	type held struct {
		snap *Snapshot
		word uint32
	}
	var ring []held
	for i := 0; i < 40; i++ {
		w := uint32(0xC0DE0000 + i)
		s.WriteU32(base+Addr(i%32)*PageSize, w)
		ring = append(ring, held{s.Snapshot(), w})
		if len(ring) > 5 {
			ring[0].snap.Release()
			ring = ring[1:]
		}
		if i%7 == 3 {
			s.Restore(ring[i%len(ring)].snap)
		}
	}
	// Restore each surviving snapshot oldest-first and verify its word.
	for k := len(ring) - 1; k >= 0; k-- {
		s.Restore(ring[k].snap)
		idx := ring[k].word - 0xC0DE0000
		if v, _ := s.ReadU32(base + Addr(idx%32)*PageSize); v != ring[k].word {
			t.Fatalf("snapshot %d: word %#x, want %#x", k, v, ring[k].word)
		}
		ring[k].snap.Release()
	}
}
