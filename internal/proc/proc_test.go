package proc

import (
	"strings"
	"testing"
	"time"

	"firstaid/internal/callsite"
	"firstaid/internal/heap"
	"firstaid/internal/vmem"
)

func newProc(t testing.TB) *Proc {
	t.Helper()
	mem := vmem.New(64 << 20)
	h := heap.New(mem)
	return New(mem, RawMM{H: h})
}

func TestMallocStoreLoad(t *testing.T) {
	p := newProc(t)
	var a vmem.Addr
	f := Catch(func() {
		defer p.Enter("main")()
		a = p.Malloc(64)
		p.StoreU32(a, 0x1234)
		if v := p.LoadU32(a); v != 0x1234 {
			t.Fatalf("LoadU32 = %#x", v)
		}
		p.StoreString(a+8, "hello")
		if s := p.LoadString(a+8, 5); s != "hello" {
			t.Fatalf("LoadString = %q", s)
		}
		p.Free(a)
	})
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
}

func TestWildLoadTraps(t *testing.T) {
	p := newProc(t)
	f := Catch(func() {
		defer p.Enter("main")()
		p.At("deref")
		p.Load(0, 4) // nil dereference
	})
	if f == nil {
		t.Fatal("no trap")
	}
	if f.Kind != AccessViolation {
		t.Fatalf("kind = %v", f.Kind)
	}
	if f.Instr != "main:deref" {
		t.Fatalf("instr = %q", f.Instr)
	}
	if len(f.Stack) != 1 || f.Stack[0] != "main" {
		t.Fatalf("stack = %v", f.Stack)
	}
}

func TestDoubleFreeTrapsAsBadFree(t *testing.T) {
	p := newProc(t)
	var a vmem.Addr
	if f := Catch(func() {
		defer p.Enter("main")()
		a = p.Malloc(32)
		p.Free(a)
	}); f != nil {
		t.Fatalf("setup fault: %v", f)
	}
	f := Catch(func() {
		defer p.Enter("main")()
		p.Free(a)
	})
	if f == nil || (f.Kind != BadFree && f.Kind != HeapCorruption) {
		t.Fatalf("double free fault = %+v", f)
	}
}

func TestAssert(t *testing.T) {
	p := newProc(t)
	if f := Catch(func() { p.Assert(true, "fine") }); f != nil {
		t.Fatalf("true assert trapped: %v", f)
	}
	f := Catch(func() {
		defer p.Enter("check_magic")()
		p.Assert(false, "bad magic %#x", 0xCDCDCDCD)
	})
	if f == nil || f.Kind != AssertFailure {
		t.Fatalf("fault = %+v", f)
	}
	if !strings.Contains(f.Msg, "0xcdcdcdcd") {
		t.Fatalf("msg = %q", f.Msg)
	}
}

func TestCatchPropagatesNonFaultPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("simulator panic swallowed")
		}
	}()
	Catch(func() { panic("simulator bug") })
}

func TestSiteUsesTopThreeFrames(t *testing.T) {
	p := newProc(t)
	var id callsite.ID
	Catch(func() {
		defer p.Enter("main")()
		defer p.Enter("handle_request")()
		defer p.Enter("cache_insert")()
		defer p.Enter("xmalloc")()
		id = p.Site()
	})
	key := p.Sites.Key(id)
	want := callsite.Key{"xmalloc", "cache_insert", "handle_request"}
	if key != want {
		t.Fatalf("site key = %v, want %v", key, want)
	}
}

func TestSitesStableAcrossCalls(t *testing.T) {
	p := newProc(t)
	alloc := func() callsite.ID {
		defer p.Enter("main")()
		defer p.Enter("wrapper")()
		a := p.Malloc(16)
		id := p.Site()
		p.Free(a)
		return id
	}
	var a, b callsite.ID
	Catch(func() { a = alloc() })
	Catch(func() { b = alloc() })
	if a != b {
		t.Fatalf("same code path interned two sites: %d vs %d", a, b)
	}
}

func TestStateRoundTrip(t *testing.T) {
	p := newProc(t)
	p.SetRoot(3, 0xABCD)
	p.Tick(500)
	p.Rand()
	st := p.State()

	p.SetRoot(3, 1)
	p.Tick(100)
	p.Rand()

	p.SetState(st)
	if p.Root(3) != 0xABCD {
		t.Fatal("root not restored")
	}
	if p.Clock() != st.Clock {
		t.Fatal("clock not restored")
	}
}

func TestRandDeterministicFromState(t *testing.T) {
	p := newProc(t)
	st := p.State()
	a := []uint64{p.Rand(), p.Rand(), p.Rand()}
	p.SetState(st)
	b := []uint64{p.Rand(), p.Rand(), p.Rand()}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PRNG not replayable")
		}
	}
}

func TestClockAdvancesOnOps(t *testing.T) {
	p := newProc(t)
	c0 := p.Clock()
	Catch(func() {
		defer p.Enter("main")()
		a := p.Malloc(64)
		p.Store(a, make([]byte, 64))
		p.Load(a, 64)
		p.Free(a)
	})
	if p.Clock() <= c0 {
		t.Fatal("clock did not advance")
	}
}

func TestMemcpy(t *testing.T) {
	p := newProc(t)
	f := Catch(func() {
		defer p.Enter("main")()
		src := p.Malloc(32)
		dst := p.Malloc(32)
		p.StoreString(src, "copy me")
		p.Memcpy(dst, src, 7)
		if s := p.LoadString(dst, 7); s != "copy me" {
			t.Fatalf("copied %q", s)
		}
	})
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
}

type countingChecker struct {
	reads, writes int
	lastInstr     string
}

func (c *countingChecker) Access(_ vmem.Addr, _ int, write bool, instr func() string) {
	if write {
		c.writes++
	} else {
		c.reads++
	}
	c.lastInstr = instr()
}

func TestAccessCheckerObservesAll(t *testing.T) {
	p := newProc(t)
	ck := &countingChecker{}
	p.SetAccessChecker(ck)
	Catch(func() {
		defer p.Enter("main")()
		a := p.Malloc(16)
		p.At("init")
		p.StoreU32(a, 1)
		p.LoadU32(a)
		p.Memset(a, 0, 16)
	})
	if ck.writes != 2 || ck.reads != 1 {
		t.Fatalf("checker saw %d writes, %d reads", ck.writes, ck.reads)
	}
	p.SetAccessChecker(nil)
	Catch(func() {
		defer p.Enter("main")()
		a := p.Malloc(16)
		p.StoreU32(a, 1)
	})
	if ck.writes != 2 {
		t.Fatal("checker still active after removal")
	}
}

func TestInstrDefaultsToFrameName(t *testing.T) {
	p := newProc(t)
	Catch(func() {
		defer p.Enter("worker")()
		if p.Instr() != "worker" {
			t.Fatalf("Instr = %q", p.Instr())
		}
	})
	if p.Instr() != "<no frame>" {
		t.Fatalf("empty-stack Instr = %q", p.Instr())
	}
}

func BenchmarkMallocFreeThroughProc(b *testing.B) {
	p := newProc(b)
	pop := p.Enter("bench")
	defer pop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := p.Malloc(uint32(16 + i%128))
		p.Free(a)
	}
}

// BenchmarkMallocFreeSpeedupGuard enforces this PR's headline acceptance
// number in-process: the malloc/free hot path with the vmem fast paths
// (micro-TLB word accessors) and the call-site memo must be ≥ 1.5× faster
// than the pre-PR reference path, reconstructed by disabling both. Like
// the repo's other guard benchmarks it times fixed-size runs directly,
// interleaves reference/fast rounds, takes the best of each to shed
// scheduler noise, and re-measures once before failing.
func BenchmarkMallocFreeSpeedupGuard(b *testing.B) {
	const (
		target = 1.5
		ops    = 200_000
		rounds = 5
	)

	run := func(reference bool) time.Duration {
		mem := vmem.New(64 << 20)
		if reference {
			mem.SetFastPaths(false)
		}
		h := heap.New(mem)
		p := New(mem, RawMM{H: h})
		p.siteMemoOff = reference
		pop := p.Enter("bench")
		defer pop()
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			a := p.Malloc(uint32(16 + i%128))
			p.Free(a)
		}
		return time.Since(t0)
	}

	measure := func() float64 {
		best := func(d, prev time.Duration) time.Duration {
			if prev == 0 || d < prev {
				return d
			}
			return prev
		}
		var ref, fast time.Duration
		run(true) // warmup
		run(false)
		for r := 0; r < rounds; r++ {
			ref = best(run(true), ref)
			fast = best(run(false), fast)
		}
		return float64(ref) / float64(fast)
	}

	speedup := 0.0
	for i := 0; i < b.N; i++ {
		for attempt := 0; attempt < 2; attempt++ {
			speedup = measure()
			if speedup >= target {
				break
			}
		}
	}
	b.ReportMetric(speedup, "speedup-x")
	if speedup < target {
		b.Fatalf("malloc/free fast path is %.2fx the reference, want >= %.1fx", speedup, target)
	}
}
