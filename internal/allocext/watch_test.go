package allocext

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"firstaid/internal/callsite"
	"firstaid/internal/canary"
	"firstaid/internal/heap"
	"firstaid/internal/mmbug"
	"firstaid/internal/vmem"
)

// randProgram drives an extension through a random program over the
// paths that change its object table, scan registry and watch index:
// mallocs that are plain, padded, canary-padded or zero-filled (zero-fill
// tracks initialisation in validation mode), frees that are immediate,
// delayed or delayed and canary-filled (and recycled past DelayLimit),
// Protect, checkpoint and rollback through State/SetState, switches
// between normal and validation mode, validation accesses and heap
// marking. With corrupt set it also overwrites pads, freed payloads and
// marks.
type randProgram struct {
	fx      *fixture
	rng     *rand.Rand
	corrupt bool
	alloc   []callsite.ID // plain, padded, canary-padded, zero-filled
	free    []callsite.ID // immediate, delayed, delayed and canary-filled
	live    []vmem.Addr   // objects the program holds
	ckpts   []*progCheckpoint
}

type progCheckpoint struct {
	ext  interface{}
	heap heap.State
	mem  *vmem.Snapshot
	live []vmem.Addr
}

func newRandProgram(t *testing.T, seed int64, corrupt bool) *randProgram {
	fx := newFixture(t)
	site := func(name string) callsite.ID { return fx.sites.Intern(callsite.Key{name, "prog", "main"}) }
	p := &randProgram{
		fx:      fx,
		rng:     rand.New(rand.NewSource(seed)),
		corrupt: corrupt,
		alloc:   []callsite.ID{site("plain"), site("pad"), site("canary_pad"), site("zero")},
		free:    []callsite.ID{site("free_now"), site("free_delay"), site("free_canary")},
	}
	fx.ext.SetPatches(&fakePatches{
		alloc: map[callsite.ID]AllocAction{
			p.alloc[1]: {Pad: true},
			p.alloc[2]: {Pad: true, PadCanary: true},
			p.alloc[3]: {Zero: true},
		},
		free: map[callsite.ID]FreeAction{
			p.free[1]: {Delay: true},
			p.free[2]: {Delay: true, CanaryFill: true},
		},
	})
	fx.ext.DelayLimit = 4096
	return p
}

// step runs one random operation.
func (p *randProgram) step() error {
	e, fx, rng := p.fx.ext, p.fx, p.rng
	switch op := rng.Intn(20); {
	case op < 7 || len(p.live) == 0:
		n := uint32(rng.Intn(300) + 1)
		if rng.Intn(10) == 0 {
			n = uint32(rng.Intn(6000) + 1) // spans pages
		}
		a, err := e.Malloc(n, p.alloc[rng.Intn(len(p.alloc))])
		if err != nil {
			return fmt.Errorf("malloc(%d): %v", n, err)
		}
		p.live = append(p.live, a)
	case op < 12:
		k := rng.Intn(len(p.live))
		if err := e.Free(p.live[k], p.free[rng.Intn(len(p.free))]); err != nil {
			return fmt.Errorf("free(%#x): %v", p.live[k], err)
		}
		p.live = append(p.live[:k], p.live[k+1:]...)
	case op == 12:
		k := rng.Intn(len(p.live))
		a, err := e.Protect(p.live[k], p.alloc[0])
		if err != nil {
			return fmt.Errorf("protect(%#x): %v", p.live[k], err)
		}
		p.live[k] = a
	case op == 13:
		// Keep two checkpoints, so a rollback may land on either.
		if len(p.ckpts) == 2 {
			p.ckpts[0].mem.Release()
			p.ckpts = p.ckpts[1:]
		}
		p.ckpts = append(p.ckpts, &progCheckpoint{
			ext:  e.State(),
			heap: fx.h.State(),
			mem:  fx.mem.Snapshot(),
			live: append([]vmem.Addr(nil), p.live...),
		})
	case op == 14:
		if len(p.ckpts) > 0 {
			c := p.ckpts[rng.Intn(len(p.ckpts))]
			fx.mem.Restore(c.mem)
			fx.h.SetState(c.heap)
			e.SetState(c.ext)
			p.live = append(p.live[:0], c.live...)
		}
	case op == 15:
		// The heap stays deterministic in validation mode: randomized
		// placement carves spacer chunks the extension never sees, which
		// may land inside a heap-marking range.
		if e.Mode() == ModeValidation {
			e.EndTrace()
			e.SetMode(ModeNormal)
		} else {
			e.SetMode(ModeValidation)
			e.BeginTrace()
		}
	case op < 18:
		// A validation access in or around a held object; writes set
		// init bits, which copies a shared leaf after a checkpoint.
		a := p.live[rng.Intn(len(p.live))] + vmem.Addr(rng.Intn(64))
		e.Access(a-vmem.Addr(rng.Intn(96)), rng.Intn(128)+1, rng.Intn(2) == 0, at("prog:access"))
	case op == 18:
		if err := e.MarkHeap(); err != nil {
			return fmt.Errorf("MarkHeap: %v", err)
		}
	default:
		if p.corrupt {
			p.corruptOne()
		}
	}
	return nil
}

// corruptOne overwrites a few bytes of a random canary region: a padded
// object's front or back pad, a delay-freed object's payload, or a mark.
func (p *randProgram) corruptOne() {
	s, rng := &p.fx.ext.s, p.rng
	var addr vmem.Addr
	var n int
	switch rng.Intn(3) {
	case 0:
		if len(s.padded) == 0 {
			return
		}
		r := s.padded[rng.Intn(len(s.padded))]
		if rng.Intn(2) == 0 {
			addr, n = r.base+HeaderLen, int(r.padFront)
		} else {
			addr, n = r.user+vmem.Addr(r.size), int(r.padBack)
		}
	case 1:
		if len(s.delayQ) == 0 {
			return
		}
		r := s.delayQ[rng.Intn(len(s.delayQ))]
		addr, n = r.user, int(r.size)
	default:
		if len(s.marks) == 0 {
			return
		}
		m := s.marks[rng.Intn(len(s.marks))]
		addr, n = m.addr, m.n
	}
	if n <= 0 {
		return
	}
	off := rng.Intn(n)
	k := rng.Intn(8) + 1
	if off+k > n {
		k = n - off
	}
	junk := make([]byte, k)
	rng.Read(junk)
	p.fx.mem.Write(addr+vmem.Addr(off), junk)
}

// registriesInStep reports where the scan registry or the delay FIFO
// disagrees with the object table. Every live canary-padded object must
// have one padRegion with its geometry, every delay-freed object one
// freedRegion with its size and fill, and the lists must hold nothing
// else.
func registriesInStep(e *Ext) error {
	pads := map[vmem.Addr]padRegion{}
	for _, r := range e.s.padded {
		if _, dup := pads[r.user]; dup {
			return fmt.Errorf("scan registry lists %#x twice", r.user)
		}
		pads[r.user] = r
	}
	freed := map[vmem.Addr]freedRegion{}
	for _, r := range e.s.delayQ {
		if _, dup := freed[r.user]; dup {
			return fmt.Errorf("delay FIFO lists %#x twice", r.user)
		}
		freed[r.user] = r
	}
	var err error
	e.s.objs.each(func(o *Object) bool {
		if o.Alloc.PadCanary && !o.Delayed {
			if r, ok := pads[o.User]; !ok || r != padRegionOf(o) {
				err = fmt.Errorf("padded object %+v: scan registry holds %+v (listed %v)", *o, r, ok)
				return false
			}
			delete(pads, o.User)
		}
		if o.Delayed {
			want := freedRegion{user: o.User, size: o.UserSize, canary: o.Free.CanaryFill}
			if r, ok := freed[o.User]; !ok || r != want {
				err = fmt.Errorf("delay-freed object %+v: delay FIFO holds %+v (listed %v)", *o, r, ok)
				return false
			}
			delete(freed, o.User)
		}
		return true
	})
	if err == nil && len(pads)+len(freed) > 0 {
		err = fmt.Errorf("registries list objects the table does not: padded %v, delay FIFO %v", pads, freed)
	}
	return err
}

// bruteWatch is watchAt's reference: a walk of the whole object table for
// the lowest interesting object whose backing region overlaps [addr, end).
func bruteWatch(e *Ext, addr, end vmem.Addr) *Object {
	var hit *Object
	e.s.objs.each(func(o *Object) bool {
		if interesting(o) && o.Base < end && addr < o.Base+vmem.Addr(o.totalLen()) {
			hit = o
			return false
		}
		return true
	})
	return hit
}

// Property: after every step of a random program, the watch index finds,
// for random probes around objects, the object a brute-force search of
// the table finds. Probing skips some steps so validation-mode changes
// also meet a stale index.
func TestQuickWatchIndexMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		p := newRandProgram(t, seed, false)
		e := p.fx.ext
		var users []*Object
		for i := 0; i < 250; i++ {
			if err := p.step(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			if p.rng.Intn(3) == 0 {
				continue
			}
			users = users[:0]
			e.s.objs.each(func(o *Object) bool { users = append(users, o); return true })
			for k := 0; k < 12; k++ {
				var addr vmem.Addr
				if len(users) == 0 || k == 0 {
					addr = vmem.Addr(p.rng.Intn(1 << 20))
				} else {
					o := users[p.rng.Intn(len(users))]
					addr = o.Base + vmem.Addr(p.rng.Intn(int(o.totalLen())+1400)) - 700
				}
				n := p.rng.Intn(16) + 1
				if p.rng.Intn(3) == 0 {
					n = p.rng.Intn(8000) + 1 // may cover whole objects
				}
				end := addr + vmem.Addr(n)
				if got, want := e.watchAt(addr, end), bruteWatch(e, addr, end); got != want {
					t.Logf("seed %d step %d mode %v: [%#x,%#x) watch index finds %+v, table walk %+v",
						seed, i, e.Mode(), addr, end, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refScan is Scan as it was before the scan registry and the delay FIFO
// carried each region's geometry: it walks their addresses and looks every
// object up. It returns the manifestations and leaves e's set as it was.
func refScan(e *Ext) []Manifestation {
	saved := e.manifests
	e.manifests = ManifestSet{}
	defer func() { e.manifests = saved }()
	mem := e.H.Mem()
	for _, p := range e.s.padded {
		if obj := e.s.objs.get(p.user); obj != nil && !obj.Delayed {
			refCheckPadding(e, obj)
		}
	}
	for _, p := range e.s.delayQ {
		obj := e.s.objs.get(p.user)
		if obj == nil || !obj.Delayed || !obj.Free.CanaryFill {
			continue
		}
		if c := canary.Check(mem, obj.User, int(obj.UserSize), canary.Freed); c.Corrupted() {
			e.manifests.Add(Manifestation{
				Bug:       mmbug.DanglingWrite,
				AllocSite: obj.AllocSite,
				FreeSite:  obj.FreeSite,
				Addr:      obj.User,
				Offsets:   c.Offsets,
				Detail:    fmt.Sprintf("%d bytes of delay-freed object overwritten", len(c.Offsets)),
			})
		}
	}
	for _, m := range e.s.marks {
		if c := canary.Check(mem, m.addr, m.n, canary.Mark); c.Corrupted() {
			e.manifests.Add(Manifestation{
				Bug:      mmbug.DanglingWrite,
				Addr:     m.addr,
				Offsets:  c.Offsets,
				FromMark: true,
				Detail:   "heap-marking canary overwritten: bug triggered before checkpoint",
			})
		}
	}
	return e.manifests.All
}

func refCheckPadding(e *Ext, obj *Object) {
	mem := e.H.Mem()
	if c := canary.Check(mem, obj.User+obj.UserSize, int(obj.PadBack), canary.Pad); c.Corrupted() {
		offs := make([]int, len(c.Offsets))
		for i, o := range c.Offsets {
			offs[i] = int(obj.UserSize) + o
		}
		e.manifests.Add(Manifestation{
			Bug:       mmbug.BufferOverflow,
			AllocSite: obj.AllocSite,
			Addr:      obj.User,
			Offsets:   offs,
			Detail:    fmt.Sprintf("%d bytes of rear padding overwritten", len(offs)),
		})
	}
	if c := canary.Check(mem, obj.Base+HeaderLen, int(obj.PadFront), canary.Pad); c.Corrupted() {
		offs := make([]int, len(c.Offsets))
		for i, o := range c.Offsets {
			offs[i] = o - int(obj.PadFront)
		}
		e.manifests.Add(Manifestation{
			Bug:       mmbug.BufferOverflow,
			AllocSite: obj.AllocSite,
			Addr:      obj.User,
			Offsets:   offs,
			Detail:    fmt.Sprintf("%d bytes of front padding overwritten (underflow)", len(offs)),
		})
	}
}

// Property: over random programs with random corrupting writes into pads,
// freed payloads and marks, the scan registry and the delay FIFO stay in
// step with the object table (across rollbacks to either of two
// checkpoints, which share the FIFO with the live state), and Scan's
// manifestation list equals the reference's, which looks every registered
// object up.
func TestQuickScanMatchesReference(t *testing.T) {
	manifested := 0
	f := func(seed int64) bool {
		p := newRandProgram(t, seed, true)
		e := p.fx.ext
		for i := 0; i < 250; i++ {
			if err := p.step(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			if err := registriesInStep(e); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			want := refScan(e)
			e.ResetManifests()
			e.Scan()
			if got := e.Manifests().All; !reflect.DeepEqual(got, want) {
				t.Logf("seed %d step %d: Scan manifested\n%v\nthe reference\n%v", seed, i, got, want)
				return false
			}
			manifested += len(want)
			e.ResetManifests()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if manifested == 0 {
		t.Fatal("no program corrupted a scanned region; the comparison proves nothing")
	}
}

// TestAccessCoveringWholeFreedObject: a copy that overflows its buffer
// across an entire delay-freed neighbour into the next object touches the
// freed object, although neither its first nor its last byte lies inside
// an object the validation watches. It is recorded as a write to the freed
// object, at the offset where the copy started.
func TestAccessCoveringWholeFreedObject(t *testing.T) {
	f := newFixture(t)
	f.ext.SetPatches(&fakePatches{free: map[callsite.ID]FreeAction{f.site2: {Delay: true}}})
	f.ext.SetMode(ModeValidation)
	f.ext.BeginTrace()
	var objs [3]vmem.Addr
	for i, n := range []uint32{64, 32, 64} {
		a, err := f.ext.Malloc(n, f.site)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = a
	}
	buf, freed, next := objs[0], objs[1], objs[2]
	if err := f.ext.Free(freed, f.site2); err != nil {
		t.Fatal(err)
	}
	n := int(next-buf) + 8 // buf, the freed neighbour whole, into next
	f.ext.Access(buf, n, true, at("copy:memcpy"))
	tr := f.ext.EndTrace()
	want := []IllegalAccess{{
		Kind:      FreedWrite,
		PatchSite: f.site2,
		Instr:     "copy:memcpy",
		Obj:       freed,
		Offset:    int(buf) - int(freed),
		Len:       n,
	}}
	if !reflect.DeepEqual(tr.Illegal, want) {
		t.Fatalf("a %d-byte write across the freed %d-byte object recorded %+v, want %+v", n, 32, tr.Illegal, want)
	}
}
