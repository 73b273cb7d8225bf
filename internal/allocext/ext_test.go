package allocext

import (
	"testing"

	"firstaid/internal/callsite"
	"firstaid/internal/canary"
	"firstaid/internal/heap"
	"firstaid/internal/mmbug"
	"firstaid/internal/vmem"
)

type fixture struct {
	mem   *vmem.Space
	h     *heap.Heap
	sites *callsite.Table
	ext   *Ext
	site  callsite.ID
	site2 callsite.ID
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	mem := vmem.New(64 << 20)
	h := heap.New(mem)
	sites := callsite.NewTable()
	return &fixture{
		mem:   mem,
		h:     h,
		sites: sites,
		ext:   New(h, sites),
		site:  sites.Intern(callsite.Key{"alloc_buf", "handler", "main"}),
		site2: sites.Intern(callsite.Key{"free_buf", "handler", "main"}),
	}
}

// at is an access's instruction label, in the lazy form Access takes.
func at(label string) func() string { return func() string { return label } }

// fakePatches implements PatchSource for tests.
type fakePatches struct {
	alloc map[callsite.ID]AllocAction
	free  map[callsite.ID]FreeAction
}

func (p *fakePatches) AllocPatch(site callsite.ID) (AllocAction, bool) {
	a, ok := p.alloc[site]
	return a, ok
}

func (p *fakePatches) FreePatch(site callsite.ID) (FreeAction, bool) {
	a, ok := p.free[site]
	return a, ok
}

func TestMallocAddsMetadataHeader(t *testing.T) {
	f := newFixture(t)
	user, err := f.ext.Malloc(100, f.site)
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := f.ext.Object(user)
	if !ok {
		t.Fatal("object not recorded")
	}
	if obj.Base != user-HeaderLen {
		t.Fatalf("base = %#x, user = %#x", obj.Base, user)
	}
	magic, _ := f.mem.ReadU32(obj.Base)
	if magic != headerMagic {
		t.Fatalf("magic = %#x", magic)
	}
	siteWord, _ := f.mem.ReadU32(obj.Base + 4)
	if callsite.ID(siteWord) != f.site {
		t.Fatalf("site in header = %d", siteWord)
	}
	if f.ext.MetaBytes() != HeaderLen {
		t.Fatalf("MetaBytes = %d", f.ext.MetaBytes())
	}
	if err := f.ext.Free(user, f.site2); err != nil {
		t.Fatal(err)
	}
	if f.ext.MetaBytes() != 0 {
		t.Fatalf("MetaBytes after free = %d", f.ext.MetaBytes())
	}
}

func TestRecycledMemoryIsDirtyWithoutChanges(t *testing.T) {
	f := newFixture(t)
	a, _ := f.ext.Malloc(64, f.site)
	f.mem.Fill(a, 0x5A, 64)
	f.ext.Free(a, f.site2)
	b, _ := f.ext.Malloc(64, f.site)
	if b != a {
		t.Skipf("allocator did not recycle (a=%#x b=%#x)", a, b)
	}
	buf, _ := f.mem.Read(b+16, 16)
	dirty := false
	for _, x := range buf {
		if x != 0 {
			dirty = true
		}
	}
	if !dirty {
		t.Fatal("recycled object unexpectedly clean; uninit-read bugs cannot manifest")
	}
}

func TestPaddingAbsorbsOverflowAndCanaryDetectsIt(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddExposing(mmbug.BufferOverflow, nil))

	victim, _ := f.ext.Malloc(32, f.site)
	neighbour, _ := f.ext.Malloc(32, f.site)

	// Overflow 8 bytes past the end of victim: lands in canary padding.
	if err := f.mem.Write(victim+32, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatalf("overflow write should be absorbed: %v", err)
	}
	// The neighbour is untouched (padding isolated it).
	if got, _ := f.mem.Read(neighbour, 4); got[0] != 0xEF && got[0] != 0 {
		// neighbour content is whatever the allocator left; the real
		// check is that the heap is still sound:
	}
	if err := f.h.CheckIntegrity(); err != nil {
		t.Fatalf("heap corrupted despite padding: %v", err)
	}

	f.ext.Scan()
	ms := f.ext.Manifests()
	if !ms.Has(mmbug.BufferOverflow) {
		t.Fatal("overflow not manifested via canary")
	}
	sites := ms.Sites(mmbug.BufferOverflow)
	if len(sites) != 1 || sites[0] != f.site {
		t.Fatalf("implicated sites = %v, want [%d]", sites, f.site)
	}
	m := ms.All[0]
	if m.Addr != victim {
		t.Fatalf("manifestation object = %#x, want %#x", m.Addr, victim)
	}
	if len(m.Offsets) != 8 || m.Offsets[0] != 32 {
		t.Fatalf("offsets = %v", m.Offsets)
	}
}

func TestPlainPaddingPreventsWithoutManifesting(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddPreventive(mmbug.BufferOverflow, nil))

	a, _ := f.ext.Malloc(32, f.site)
	f.mem.Write(a+32, make([]byte, 64)) // overflow absorbed silently
	f.ext.Scan()
	if f.ext.Manifests().Len() != 0 {
		t.Fatalf("preventive padding produced manifestations: %v", f.ext.Manifests().All)
	}
	if err := f.ext.Free(a, f.site2); err != nil {
		t.Fatal(err)
	}
}

func TestDelayFreePreservesContents(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddPreventive(mmbug.DanglingRead, nil))

	a, _ := f.ext.Malloc(64, f.site)
	f.mem.Write(a, []byte("precious data"))
	if err := f.ext.Free(a, f.site2); err != nil {
		t.Fatal(err)
	}
	// Dangling read: contents still there.
	got, _ := f.mem.Read(a, 13)
	if string(got) != "precious data" {
		t.Fatalf("delay-freed contents = %q", got)
	}
	// The object is not recycled by the next same-size malloc.
	b, _ := f.ext.Malloc(64, f.site)
	if b == a {
		t.Fatal("delay-freed object recycled immediately")
	}
	if f.ext.DelayedObjects() != 1 {
		t.Fatalf("DelayedObjects = %d", f.ext.DelayedObjects())
	}
}

func TestCanaryFillExposesDanglingWrite(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddExposing(mmbug.DanglingWrite, nil))

	a, _ := f.ext.Malloc(64, f.site)
	f.ext.Free(a, f.site2)
	// Dangling write through the stale pointer.
	f.mem.Write(a+8, []byte{0xDE, 0xAD})
	f.ext.Scan()
	ms := f.ext.Manifests()
	if !ms.Has(mmbug.DanglingWrite) {
		t.Fatal("dangling write not manifested")
	}
	sites := ms.Sites(mmbug.DanglingWrite)
	if len(sites) != 1 || sites[0] != f.site2 {
		t.Fatalf("implicated free sites = %v, want [%d]", sites, f.site2)
	}
}

func TestCanaryFillExposesDanglingReadAsPoisonedData(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddExposing(mmbug.DanglingRead, nil))

	a, _ := f.ext.Malloc(64, f.site)
	f.mem.WriteU32(a, 0x1234)
	f.ext.Free(a, f.site2)
	v, _ := f.mem.ReadU32(a)
	if !canary.IsPoisoned32(v) {
		t.Fatalf("dangling read returned %#x, want poisoned canary", v)
	}
}

func TestDoubleFreeParamCheck(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddPreventive(mmbug.DoubleFree, nil))

	a, _ := f.ext.Malloc(32, f.site)
	if err := f.ext.Free(a, f.site2); err != nil {
		t.Fatal(err)
	}
	// Second free is caught by the parameter check and neutralised.
	if err := f.ext.Free(a, f.site2); err != nil {
		t.Fatalf("protected double free crashed: %v", err)
	}
	ms := f.ext.Manifests()
	if !ms.Has(mmbug.DoubleFree) {
		t.Fatal("double free not manifested")
	}
	if sites := ms.Sites(mmbug.DoubleFree); len(sites) != 1 || sites[0] != f.site2 {
		t.Fatalf("sites = %v", sites)
	}
}

func TestUnprotectedDoubleFreeCrashes(t *testing.T) {
	f := newFixture(t)
	// Normal mode, no patches: raw allocator behaviour.
	a, _ := f.ext.Malloc(32, f.site)
	if err := f.ext.Free(a, f.site2); err != nil {
		t.Fatal(err)
	}
	if err := f.ext.Free(a, f.site2); err == nil {
		t.Fatal("unprotected double free did not fault")
	}
}

// TestDoubleFreeOfHotAddressManifests: an address recycled by thousands of
// malloc/free pairs stays remembered as freed after more than freedCap
// frees, so a double free of it still manifests at its free site, and the
// freed map stays within freedCap entries.
func TestDoubleFreeOfHotAddressManifests(t *testing.T) {
	f := newFixture(t)
	hot, _ := f.ext.Malloc(32, f.site)
	if err := f.ext.Free(hot, f.site2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		a, err := f.ext.Malloc(32, f.site)
		if err != nil {
			t.Fatal(err)
		}
		if a != hot {
			t.Fatalf("malloc %d returned %#x, want the recycled %#x", i, a, hot)
		}
		if err := f.ext.Free(a, f.site2); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(f.ext.s.freed); n > freedCap {
		t.Fatalf("freed map holds %d entries, cap %d", n, freedCap)
	}
	f.ext.Free(hot, f.site) // unprotected: the raw allocator faults
	if sites := f.ext.Manifests().Sites(mmbug.DoubleFree); len(sites) != 1 || sites[0] != f.site2 {
		t.Fatalf("double free of a hot address manifested at sites %v, want [%d]", sites, f.site2)
	}
}

// TestFreedHorizon pins how long a free is remembered: a double free
// manifests after freedCap-1 later frees of other addresses and no longer
// after freedCap, the horizon of the bounded freed-address record.
func TestFreedHorizon(t *testing.T) {
	for _, tc := range []struct {
		later    int
		manifest bool
	}{{freedCap - 1, true}, {freedCap, false}} {
		f := newFixture(t)
		victim, _ := f.ext.Malloc(32, f.site)
		others := make([]vmem.Addr, tc.later)
		for i := range others {
			a, err := f.ext.Malloc(32, f.site)
			if err != nil {
				t.Fatal(err)
			}
			others[i] = a
		}
		if err := f.ext.Free(victim, f.site2); err != nil {
			t.Fatal(err)
		}
		for _, a := range others {
			if err := f.ext.Free(a, f.site); err != nil {
				t.Fatal(err)
			}
		}
		f.ext.Free(victim, f.site) // unprotected: the raw allocator faults
		sites := f.ext.Manifests().Sites(mmbug.DoubleFree)
		if got := len(sites) == 1 && sites[0] == f.site2; got != tc.manifest {
			t.Fatalf("double free after %d later frees manifested at %v, want manifest=%v", tc.later, sites, tc.manifest)
		}
	}
}

func TestZeroFillPreventsUninitRead(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	cs := NewChangeSet().AddPreventive(mmbug.UninitRead, nil)
	f.ext.SetChanges(cs)

	// Dirty a chunk, free it, realloc: with zero-fill the new object is
	// clean despite recycling.
	a, _ := f.ext.Malloc(64, f.site)
	f.mem.Fill(a, 0x77, 64)
	f.ext.Free(a, f.site2)
	b, _ := f.ext.Malloc(64, f.site)
	buf, _ := f.mem.Read(b, 64)
	for i, x := range buf {
		if x != 0 {
			t.Fatalf("byte %d = %#x after zero-fill", i, x)
		}
	}
}

func TestCanaryFillNewExposesUninitRead(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddExposing(mmbug.UninitRead, nil))
	a, _ := f.ext.Malloc(16, f.site)
	v, _ := f.mem.ReadU32(a)
	if !canary.IsPoisoned32(v) {
		t.Fatalf("fresh object reads %#x, want canary", v)
	}
}

func TestSiteScopedChanges(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	scope := callsite.NewSet(f.site)
	f.ext.SetChanges(NewChangeSet().AddAlloc(scope, AllocAction{Zero: true}))

	other := f.sites.Intern(callsite.Key{"other_alloc", "x", "y"})
	// Dirty the recycling path.
	a, _ := f.ext.Malloc(64, f.site)
	f.mem.Fill(a, 0x77, 64)
	f.ext.Free(a, f.site2)
	b, _ := f.ext.Malloc(64, other) // unscoped: stays dirty
	dirty := false
	buf, _ := f.mem.Read(b, 64)
	for _, x := range buf {
		if x != 0 {
			dirty = true
		}
	}
	if !dirty {
		t.Skip("chunk not recycled; cannot observe scoping")
	}
	f.ext.Free(b, f.site2)
	c, _ := f.ext.Malloc(64, f.site) // scoped: zeroed
	buf, _ = f.mem.Read(c, 64)
	for i, x := range buf {
		if x != 0 {
			t.Fatalf("scoped zero-fill missed byte %d = %#x", i, x)
		}
	}
}

func TestDelayLimitReleasesOldest(t *testing.T) {
	f := newFixture(t)
	f.ext.DelayLimit = 4096
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddPreventive(mmbug.DanglingRead, nil))

	var ptrs []vmem.Addr
	for i := 0; i < 10; i++ {
		p, _ := f.ext.Malloc(1024, f.site)
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := f.ext.Free(p, f.site2); err != nil {
			t.Fatal(err)
		}
	}
	if f.ext.DelayedBytes() > 4096+1100 {
		t.Fatalf("DelayedBytes = %d exceeds limit", f.ext.DelayedBytes())
	}
	if f.ext.DelayedObjects() >= 10 {
		t.Fatal("no delayed objects were released")
	}
	// The oldest were released; the newest are still held.
	if _, ok := f.ext.Object(ptrs[0]); ok {
		t.Fatal("oldest delay-freed object still held")
	}
	if _, ok := f.ext.Object(ptrs[9]); !ok {
		t.Fatal("newest delay-freed object was released")
	}
}

func TestStateSnapshotRestore(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().AddPreventive(mmbug.DanglingRead, nil))

	a, _ := f.ext.Malloc(64, f.site)
	snapExt := f.ext.State()
	snapHeap := f.h.State()
	snapMem := f.mem.Snapshot()
	defer snapMem.Release()

	f.ext.Free(a, f.site2)
	b, _ := f.ext.Malloc(32, f.site)
	_ = b

	f.mem.Restore(snapMem)
	f.h.SetState(snapHeap)
	f.ext.SetState(snapExt)

	if _, ok := f.ext.Object(a); !ok {
		t.Fatal("object lost after rollback")
	}
	if f.ext.DelayedObjects() != 0 {
		t.Fatal("delay queue not rolled back")
	}
	// And the world still works.
	c, err := f.ext.Malloc(16, f.site)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ext.Free(c, f.site2); err != nil {
		t.Fatal(err)
	}
}

func TestHeapMarkingDetectsWriteIntoFreeSpace(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)

	// Create a free hole surrounded by live objects.
	a, _ := f.ext.Malloc(128, f.site)
	guard, _ := f.ext.Malloc(16, f.site)
	_ = guard
	f.ext.Free(a, f.site2)

	if err := f.ext.MarkHeap(); err != nil {
		t.Fatal(err)
	}
	// A pre-checkpoint dangling pointer writes into the hole.
	f.mem.Write(a+32, []byte{9, 9, 9})
	f.ext.Scan()
	if !f.ext.Manifests().HasMark() {
		t.Fatal("heap marking missed the write into free space")
	}
}

func TestHeapMarkingSurvivesAllocatorActivity(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	a, _ := f.ext.Malloc(512, f.site)
	guard, _ := f.ext.Malloc(16, f.site)
	_ = guard
	f.ext.Free(a, f.site2)
	if err := f.ext.MarkHeap(); err != nil {
		t.Fatal(err)
	}
	// Allocate from the marked hole and elsewhere: the allocator's own
	// metadata writes must not read as corruption.
	for i := 0; i < 20; i++ {
		p, err := f.ext.Malloc(uint32(32+i*16), f.site)
		if err != nil {
			t.Fatal(err)
		}
		f.mem.Fill(p, 0xFF, 32) // legitimate writes to fresh objects
	}
	f.ext.Scan()
	if f.ext.Manifests().HasMark() {
		t.Fatalf("false-positive mark corruption: %v", f.ext.Manifests().All)
	}
}

func TestNormalModeAppliesPatches(t *testing.T) {
	f := newFixture(t)
	patches := &fakePatches{
		alloc: map[callsite.ID]AllocAction{f.site: {Pad: true}},
		free:  map[callsite.ID]FreeAction{f.site2: {Delay: true}},
	}
	f.ext.SetPatches(patches)

	a, _ := f.ext.Malloc(32, f.site)
	obj, _ := f.ext.Object(a)
	if obj.PadFront != PadFront || obj.PadBack != PadBack {
		t.Fatalf("padding patch not applied: %d/%d", obj.PadFront, obj.PadBack)
	}
	// Overflow absorbed; heap intact.
	f.mem.Write(a+32, make([]byte, 100))
	if err := f.h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	f.ext.Free(a, f.site2)
	if obj2, ok := f.ext.Object(a); !ok || !obj2.Delayed {
		t.Fatal("delay-free patch not applied")
	}
	// Double free neutralised by the patch's parameter check.
	if err := f.ext.Free(a, f.site2); err != nil {
		t.Fatalf("patched double free crashed: %v", err)
	}
	trig := f.ext.Triggers()
	if trig[f.site] == 0 || trig[f.site2] == 0 {
		t.Fatalf("trigger counts = %v", trig)
	}
	// Unpatched site gets nothing.
	other := f.sites.Intern(callsite.Key{"u", "v", "w"})
	b, _ := f.ext.Malloc(32, other)
	if obj, _ := f.ext.Object(b); obj.PadFront != 0 {
		t.Fatal("patch leaked to unpatched site")
	}
}

func TestValidationTraceRecordsOpsAndIllegalAccesses(t *testing.T) {
	f := newFixture(t)
	patches := &fakePatches{
		alloc: map[callsite.ID]AllocAction{f.site: {Pad: true}},
		free:  map[callsite.ID]FreeAction{f.site2: {Delay: true}},
	}
	f.ext.SetPatches(patches)
	f.ext.SetMode(ModeValidation)
	f.ext.BeginTrace()

	a, _ := f.ext.Malloc(32, f.site)
	// Overflow into padding.
	f.ext.Access(a+32, 8, true, at("handler:copy"))
	// Free, then dangling read.
	f.ext.Free(a, f.site2)
	f.ext.Access(a+4, 4, false, at("handler:later_read"))

	tr := f.ext.EndTrace()
	if len(tr.Ops) != 2 {
		t.Fatalf("ops = %d", len(tr.Ops))
	}
	if !tr.Ops[0].Alloc || !tr.Ops[0].Patched {
		t.Fatalf("op0 = %+v", tr.Ops[0])
	}
	if tr.Ops[1].Alloc || !tr.Ops[1].Delayed {
		t.Fatalf("op1 = %+v", tr.Ops[1])
	}
	if len(tr.Illegal) != 2 {
		t.Fatalf("illegal accesses = %v", tr.Illegal)
	}
	if tr.Illegal[0].Kind != PadWrite || tr.Illegal[0].Offset != 32 {
		t.Fatalf("illegal[0] = %+v", tr.Illegal[0])
	}
	if tr.Illegal[1].Kind != FreedRead || tr.Illegal[1].Offset != 4 {
		t.Fatalf("illegal[1] = %+v", tr.Illegal[1])
	}
	if tr.TriggerCount() != 2 {
		t.Fatalf("TriggerCount = %d", tr.TriggerCount())
	}
	sigs := tr.Signatures()
	if len(sigs) != 2 {
		t.Fatalf("signatures = %v", sigs)
	}
}

func TestValidationUninitReadTracking(t *testing.T) {
	f := newFixture(t)
	patches := &fakePatches{alloc: map[callsite.ID]AllocAction{f.site: {Zero: true}}}
	f.ext.SetPatches(patches)
	f.ext.SetMode(ModeValidation)
	f.ext.BeginTrace()

	a, _ := f.ext.Malloc(32, f.site)
	f.ext.Access(a, 4, true, at("init_field"))     // initialise bytes 0..4
	f.ext.Access(a, 4, false, at("read_field"))    // legit read
	f.ext.Access(a+8, 4, false, at("read_uninit")) // read before init

	tr := f.ext.EndTrace()
	if len(tr.Illegal) != 1 {
		t.Fatalf("illegal = %v", tr.Illegal)
	}
	ill := tr.Illegal[0]
	if ill.Kind != UninitRead || ill.Offset != 8 || ill.Instr != "read_uninit" {
		t.Fatalf("illegal = %+v", ill)
	}
}

func TestAccessIsNoopOutsideValidation(t *testing.T) {
	f := newFixture(t)
	a, _ := f.ext.Malloc(32, f.site)
	f.ext.Access(a, 4, false, at("x")) // must not panic or record anything
}

func TestChangeSetResolution(t *testing.T) {
	tab := callsite.NewTable()
	s1 := tab.Intern(callsite.Key{"a", "", ""})
	s2 := tab.Intern(callsite.Key{"b", "", ""})

	cs := NewChangeSet().
		AddExposing(mmbug.UninitRead, callsite.NewSet(s1)).
		AddPreventive(mmbug.UninitRead, callsite.NewSet(s2)).
		AddPreventive(mmbug.BufferOverflow, nil)

	a1 := cs.AllocFor(s1)
	if !a1.CanaryNew || a1.Zero || !a1.Pad {
		t.Fatalf("s1 action = %+v", a1)
	}
	a2 := cs.AllocFor(s2)
	if a2.CanaryNew || !a2.Zero || !a2.Pad {
		t.Fatalf("s2 action = %+v", a2)
	}
}

func TestExposingPreventiveTableMatchesPaper(t *testing.T) {
	// Table 1 of the paper, encoded as expectations.
	if a, ok := PreventiveAlloc(mmbug.BufferOverflow); !ok || !a.Pad || a.PadCanary {
		t.Fatal("overflow preventive")
	}
	if a, ok := ExposingAlloc(mmbug.BufferOverflow); !ok || !a.PadCanary {
		t.Fatal("overflow exposing")
	}
	if a, ok := PreventiveFree(mmbug.DanglingRead); !ok || !a.Delay || a.CanaryFill {
		t.Fatal("dangling read preventive")
	}
	if a, ok := ExposingFree(mmbug.DanglingWrite); !ok || !a.CanaryFill {
		t.Fatal("dangling write exposing")
	}
	if a, ok := PreventiveAlloc(mmbug.UninitRead); !ok || !a.Zero {
		t.Fatal("uninit preventive")
	}
	if a, ok := ExposingAlloc(mmbug.UninitRead); !ok || !a.CanaryNew {
		t.Fatal("uninit exposing")
	}
	if _, ok := PreventiveAlloc(mmbug.DoubleFree); ok {
		t.Fatal("double free has no alloc-time preventive")
	}
	if a, ok := PreventiveFree(mmbug.DoubleFree); !ok || !a.Delay {
		t.Fatal("double free preventive")
	}
}

func TestAllPreventiveCoversEverything(t *testing.T) {
	cs := AllPreventive()
	act := cs.AllocFor(1)
	if !act.Pad || !act.Zero {
		t.Fatalf("alloc action = %+v", act)
	}
	fact := cs.FreeFor(1)
	if !fact.Delay || fact.CanaryFill {
		t.Fatalf("free action = %+v", fact)
	}
}

func BenchmarkExtMallocFreeNormalNoPatches(b *testing.B) {
	f := newFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := f.ext.Malloc(uint32(16+i%256), f.site)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.ext.Free(p, f.site2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtMallocFreeAllPreventive(b *testing.B) {
	f := newFixture(b)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(AllPreventive())
	f.ext.DelayLimit = 1 << 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := f.ext.Malloc(uint32(16+i%256), f.site)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.ext.Free(p, f.site2); err != nil {
			b.Fatal(err)
		}
	}
}
