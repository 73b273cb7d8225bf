// Package proc implements the simulated process on which First-Aid
// operates.
//
// A simulated program is written the way a C program is: it allocates and
// frees explicitly, addresses memory by integer pointer, keeps all mutable
// state in the heap (rooted through a small register file), and maintains a
// virtual call stack so that every allocation and deallocation carries a
// 3-level call-site signature. Memory errors are trapped the way hardware
// and libc would trap them — access violations, allocator aborts, failed
// assertions — and surface as Fault values, which is what First-Aid's
// error monitors catch ("our current implementation is based on assertion
// failures and exceptions", paper §3).
//
// All memory-management requests are routed through an MM implementation;
// the First-Aid allocator extension (package allocext) is one, the raw
// allocator pass-through (RawMM) is the baseline without First-Aid.
package proc

import (
	"errors"
	"fmt"

	"firstaid/internal/callsite"
	"firstaid/internal/heap"
	"firstaid/internal/mmbug"
	"firstaid/internal/trace"
	"firstaid/internal/vmem"
)

// CyclesPerSecond converts the simulated cycle clock to simulated seconds.
// At 10 MHz, the paper's 200 ms checkpoint interval is 2,000,000 cycles.
const CyclesPerSecond = 10_000_000

// Operation costs in cycles, loosely modelling a 2005-era core so that the
// relative weight of allocator work, memory traffic and checkpointing
// matches the paper's overhead breakdown.
const (
	costMalloc = 150
	costFree   = 120
	costAccess = 12 // per access, plus costPerByte
	costByte   = 1  // per 8 bytes accessed
	costEnter  = 4
)

// FaultKind classifies a trap.
type FaultKind int

// Trap classes.
const (
	// AccessViolation: a load or store touched unmapped memory (SIGSEGV).
	AccessViolation FaultKind = iota
	// AssertFailure: the program's own integrity assertion failed.
	AssertFailure
	// HeapCorruption: the allocator found its metadata destroyed (the
	// glibc "corrupted double-linked list" abort).
	HeapCorruption
	// BadFree: free of a pointer that is not an allocated object.
	BadFree
	// OutOfMemory: the address space limit was exceeded.
	OutOfMemory
)

func (k FaultKind) String() string {
	switch k {
	case AccessViolation:
		return "access violation"
	case AssertFailure:
		return "assertion failure"
	case HeapCorruption:
		return "heap corruption"
	case BadFree:
		return "invalid free"
	case OutOfMemory:
		return "out of memory"
	}
	return "unknown fault"
}

// Fault is a trapped error. It carries the virtual stack and instruction
// label at the trap point, the raw material of the core dump in First-Aid's
// bug report.
type Fault struct {
	Kind  FaultKind
	Addr  vmem.Addr
	Msg   string
	Stack []string // outermost first
	Instr string   // instruction label at the fault
	Clock uint64   // simulated cycle time of the fault
	Event int      // replay cursor of the event being processed, set by the supervisor
	// Early marks a fault raised by the eager validation of a protected
	// (sensitive-region) object: the corruption was trapped at the event
	// that caused it rather than at a later use or checkpoint scan.
	Early bool

	// Access marks an access violation that trapped on an unmapped page
	// (vmem.AccessError): the fault is the access itself, not a
	// consequence observed later. AccessWrite/AccessLen carry the access
	// shape for the guard tier's hit classification.
	Access      bool
	AccessWrite bool
	AccessLen   int

	// Guard* are filled by the monitor when the access classifies as a
	// guarded-slot hit: the manifested class, the implicated call-site
	// (alloc site for overflow, free site for dangling) and the process
	// clock of that decisive operation. Diagnosis uses them as evidence
	// to skip the phase-1 checkpoint search.
	GuardBug   mmbug.Type
	GuardSite  callsite.ID
	GuardClock uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%v at %s (addr %#x): %s", f.Kind, f.Instr, f.Addr, f.Msg)
}

// MM is the memory-management interface programs allocate through. The
// site argument is the interned 3-level call-site of the request.
type MM interface {
	Malloc(n uint32, site callsite.ID) (vmem.Addr, error)
	Free(p vmem.Addr, site callsite.ID) error
}

// AccessChecker observes every program load and store; the allocator
// extension implements it in validation mode to trace illegal accesses
// (the paper uses Pin for this, §5). instr returns the instruction label
// ("fn:label", see Proc.Instr); building it costs a string, so a checker
// calls it only for an access it records.
type AccessChecker interface {
	Access(addr vmem.Addr, n int, write bool, instr func() string)
}

// RawMM passes requests straight to the underlying allocator — the
// configuration of a program running without First-Aid.
type RawMM struct{ H *heap.Heap }

// Malloc implements MM.
func (m RawMM) Malloc(n uint32, _ callsite.ID) (vmem.Addr, error) { return m.H.Malloc(n) }

// Free implements MM.
func (m RawMM) Free(p vmem.Addr, _ callsite.ID) error { return m.H.Free(p) }

// UserSize reports the chunk capacity (RawMM has no per-object size
// metadata, matching malloc_usable_size semantics).
func (m RawMM) UserSize(a vmem.Addr) (uint32, bool) {
	n, err := m.H.UsableSize(a)
	if err != nil {
		return 0, false
	}
	return n, true
}

// NumRoots is the size of the root register file. Roots are the only
// program state outside the virtual heap; they are saved with every
// checkpoint.
const NumRoots = 64

// State is the process state outside the heap: roots, clock and PRNG. A
// State copy plus heap.State plus a vmem snapshot is a complete checkpoint.
type State struct {
	Roots [NumRoots]uint32
	Clock uint64
	Rng   uint64
}

type frame struct {
	fn    string
	instr string
}

// Proc is a simulated process.
type Proc struct {
	Mem   *vmem.Space
	Sites *callsite.Table

	mm      MM
	checker AccessChecker
	instr   func() string // p.Instr, bound once for the checker
	stack   []frame
	st      State
	trc     trace.Emitter

	// siteKey/siteID memoize the last interned call-site: allocation
	// bursts issue from the same call chain back to back, and the frame
	// strings are shared literals, so the key comparison is three
	// pointer-equal string checks — no map hash, no []string copy.
	siteKey callsite.Key
	siteID  callsite.ID
	// siteMemoOff disables the memo (guard benchmarks measure the
	// un-memoized reference path against the live one).
	siteMemoOff bool
}

// New creates a process over mem whose memory requests go to mm. The
// call-site table persists across rollbacks (signatures are stable keys).
func New(mem *vmem.Space, mm MM) *Proc {
	p := &Proc{
		Mem:   mem,
		Sites: callsite.NewTable(),
		mm:    mm,
		st:    State{Rng: 0x853C49E6748FEA9B},
	}
	p.instr = p.Instr
	return p
}

// SetAccessChecker installs or removes (nil) the access observer.
func (p *Proc) SetAccessChecker(c AccessChecker) { p.checker = c }

// SetTracer wires the process to an execution-trace emitter (the zero
// Emitter detaches). The process is the layer where a request's call-site
// and size are both known, so malloc/free/realloc records are emitted
// here.
func (p *Proc) SetTracer(em trace.Emitter) { p.trc = em }

// State returns a copy of the out-of-heap process state.
func (p *Proc) State() State { return p.st }

// SetState restores process state saved by State; rollback support.
func (p *Proc) SetState(s State) { p.st = s }

// Clock returns the simulated cycle time.
func (p *Proc) Clock() uint64 { return p.st.Clock }

// Tick advances the simulated clock by n cycles; programs use it to model
// computation that does not touch the heap.
func (p *Proc) Tick(n uint64) { p.st.Clock += n }

// Rand returns a deterministic pseudo-random 64-bit value from the process
// PRNG (xorshift64*); its state is part of every checkpoint so replays see
// the same sequence.
func (p *Proc) Rand() uint64 {
	x := p.st.Rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.st.Rng = x
	return x * 0x2545F4914F6CDD1D
}

// --- virtual stack -----------------------------------------------------------

// Enter pushes a stack frame and returns the matching pop:
//
//	defer p.Enter("util_ald_free")()
func (p *Proc) Enter(fn string) func() {
	p.st.Clock += costEnter
	p.stack = append(p.stack, frame{fn: fn})
	return func() { p.stack = p.stack[:len(p.stack)-1] }
}

// At labels the current instruction within the innermost frame. The label
// appears in fault reports and illegal-access traces, standing in for a
// program counter.
func (p *Proc) At(label string) {
	if len(p.stack) > 0 {
		p.stack[len(p.stack)-1].instr = label
	}
}

// Stack returns a copy of the virtual stack, outermost first.
func (p *Proc) Stack() []string {
	out := make([]string, len(p.stack))
	for i, f := range p.stack {
		out[i] = f.fn
	}
	return out
}

// Instr returns the current instruction label, "fn:label" of the innermost
// frame.
func (p *Proc) Instr() string {
	if len(p.stack) == 0 {
		return "<no frame>"
	}
	f := p.stack[len(p.stack)-1]
	if f.instr == "" {
		return f.fn
	}
	return f.fn + ":" + f.instr
}

// Site interns the current 3-level call-site.
func (p *Proc) Site() callsite.ID {
	var k callsite.Key
	n := len(p.stack)
	for i := 0; i < callsite.Depth && i < n; i++ {
		k[i] = p.stack[n-1-i].fn
	}
	if !p.siteMemoOff && k == p.siteKey && p.siteID != 0 {
		return p.siteID
	}
	id := p.Sites.Intern(k)
	p.siteKey, p.siteID = k, id
	return id
}

// --- faults ------------------------------------------------------------------

// fault raises a trap. Traps unwind via panic and are caught by Catch at
// the event boundary, modelling a signal handler.
func (p *Proc) fault(kind FaultKind, addr vmem.Addr, msg string) {
	panic(&Fault{
		Kind:  kind,
		Addr:  addr,
		Msg:   msg,
		Stack: p.Stack(),
		Instr: p.Instr(),
		Clock: p.st.Clock,
	})
}

// Assert raises an AssertFailure trap if cond is false — the simulated
// assert(3).
func (p *Proc) Assert(cond bool, format string, args ...interface{}) {
	if !cond {
		p.fault(AssertFailure, 0, fmt.Sprintf(format, args...))
	}
}

// Catch runs fn, converting a trap into a returned *Fault. Non-fault panics
// propagate: they are bugs in the simulator, not in the simulated program.
func Catch(fn func()) (f *Fault) {
	defer func() {
		if r := recover(); r != nil {
			if ft, ok := r.(*Fault); ok {
				f = ft
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// --- roots -------------------------------------------------------------------

// Root returns root register i.
func (p *Proc) Root(i int) uint32 { return p.st.Roots[i] }

// SetRoot stores v in root register i.
func (p *Proc) SetRoot(i int, v uint32) { p.st.Roots[i] = v }

// RootAddr returns root register i as an address.
func (p *Proc) RootAddr(i int) vmem.Addr { return p.st.Roots[i] }

// --- memory management --------------------------------------------------------

// costedMM is implemented by memory managers (the First-Aid allocator
// extension) that consume extra cycles per request; the process charges
// the drained cost to its clock so management overhead is visible in
// simulated time.
type costedMM interface {
	TakeCost() uint64
}

func (p *Proc) chargeMM() {
	if c, ok := p.mm.(costedMM); ok {
		p.st.Clock += c.TakeCost()
	}
}

// Malloc allocates n bytes through the memory-management layer; allocation
// failure traps (C programs that matter here do not check malloc returns
// for the bug classes under study, and OOM is terminal either way).
func (p *Proc) Malloc(n uint32) vmem.Addr {
	p.st.Clock += costMalloc
	site := p.Site()
	a, err := p.mm.Malloc(n, site)
	p.chargeMM()
	if err != nil {
		p.faultFromMMError(err, 0)
	}
	p.trc.Emit(trace.KMalloc, uint64(site), uint64(n))
	return a
}

// Free releases the object at a through the memory-management layer.
func (p *Proc) Free(a vmem.Addr) {
	p.st.Clock += costFree
	site := p.Site()
	err := p.mm.Free(a, site)
	p.chargeMM()
	if err != nil {
		p.faultFromMMError(err, a)
	}
	p.trc.Emit(trace.KFree, uint64(site), 0)
}

// sizedMM is implemented by memory managers that can report an object's
// user size (the allocator extension; RawMM falls back to chunk capacity).
// Realloc needs it to know how much to copy.
type sizedMM interface {
	UserSize(a vmem.Addr) (uint32, bool)
}

// ProtectingMM is implemented by memory managers that support
// Selfie-style sensitive regions: objects the application marks as
// always-canaried and eagerly validated. Protect may relocate the object
// (to gain guard pads) and returns its possibly-new address.
type ProtectingMM interface {
	Protect(a vmem.Addr, site callsite.ID) (vmem.Addr, error)
	Unprotect(a vmem.Addr, site callsite.ID)
	IsProtected(a vmem.Addr) bool
}

// Protect marks the object at a as a sensitive region. If the management
// layer does not support protection this is a no-op; otherwise the object
// may be migrated to a guarded allocation and the new address is returned.
// Programs must treat the returned address as the object's address from
// then on (the simulated API contract mirrors a relocating
// protect_region(3) call).
func (p *Proc) Protect(a vmem.Addr) vmem.Addr {
	pm, ok := p.mm.(ProtectingMM)
	if !ok || a == 0 {
		return a
	}
	p.st.Clock += costMalloc // migration is allocator work
	na, err := pm.Protect(a, p.Site())
	p.chargeMM()
	if err != nil {
		p.faultFromMMError(err, a)
	}
	return na
}

// Unprotect clears the sensitive-region mark on the object at a (no-op if
// unsupported or not protected).
func (p *Proc) Unprotect(a vmem.Addr) {
	pm, ok := p.mm.(ProtectingMM)
	if !ok || a == 0 {
		return
	}
	pm.Unprotect(a, p.Site())
	p.chargeMM()
}

// Calloc allocates n zeroed bytes — the simulated calloc(3). Unlike plain
// Malloc, the returned memory is always defined, so programs that use it
// cannot suffer uninitialized reads (and the paper's zero-fill preventive
// change is exactly "turn malloc into calloc" for the patched site).
func (p *Proc) Calloc(n uint32) vmem.Addr {
	a := p.Malloc(n)
	p.Memset(a, 0, int(n))
	return a
}

// Realloc resizes the object at old to n bytes — the simulated
// realloc(3), implemented as allocate-copy-free through the management
// layer so that runtime patches apply to the replacement object and the
// delayed-free discipline applies to the original. Realloc(0, n) behaves
// like Malloc.
func (p *Proc) Realloc(old vmem.Addr, n uint32) vmem.Addr {
	if old == 0 {
		return p.Malloc(n)
	}
	if p.trc.Enabled() {
		p.trc.Emit(trace.KRealloc, uint64(p.Site()), uint64(n))
	}
	var oldSize uint32
	if s, ok := p.mm.(sizedMM); ok {
		if sz, found := s.UserSize(old); found {
			oldSize = sz
		}
	}
	wasProtected := false
	if pm, ok := p.mm.(ProtectingMM); ok {
		wasProtected = pm.IsProtected(old)
	}
	a := p.Malloc(n)
	if wasProtected {
		// Protection follows the object across realloc: the replacement is
		// protected before the contents move, the original keeps its mark so
		// its free below quarantines it.
		a = p.Protect(a)
	}
	if copyLen := oldSize; copyLen > 0 {
		if copyLen > n {
			copyLen = n
		}
		p.Memcpy(a, old, int(copyLen))
	}
	p.Free(old)
	return a
}

func (p *Proc) faultFromMMError(err error, addr vmem.Addr) {
	switch {
	case errors.Is(err, heap.ErrCorrupt):
		p.fault(HeapCorruption, addr, err.Error())
	case errors.Is(err, heap.ErrBadFree):
		p.fault(BadFree, addr, err.Error())
	case errors.Is(err, vmem.ErrOutOfMemory):
		p.fault(OutOfMemory, addr, err.Error())
	default:
		p.fault(AccessViolation, addr, err.Error())
	}
}

// --- loads and stores ---------------------------------------------------------

func (p *Proc) access(addr vmem.Addr, n int, write bool) {
	p.st.Clock += costAccess + uint64(n)/8*costByte
	if p.checker != nil {
		p.checker.Access(addr, n, write, p.instr)
	}
}

// accessFault raises the trap for a failed load/store. When the failure is
// an unmapped-page access (vmem.AccessError — a guard page, a quarantined
// slot, an unmapped spill) the fault carries the precise access shape so
// the monitor can classify it against the guard tier's slots.
func (p *Proc) accessFault(err error, addr vmem.Addr) {
	var ae *vmem.AccessError
	if errors.As(err, &ae) {
		panic(&Fault{
			Kind:        AccessViolation,
			Addr:        addr,
			Msg:         err.Error(),
			Stack:       p.Stack(),
			Instr:       p.Instr(),
			Clock:       p.st.Clock,
			Access:      true,
			AccessWrite: ae.Write,
			AccessLen:   ae.Len,
		})
	}
	p.fault(AccessViolation, addr, err.Error())
}

// Load reads n bytes at addr; unmapped memory traps.
func (p *Proc) Load(addr vmem.Addr, n int) []byte {
	p.access(addr, n, false)
	b, err := p.Mem.Read(addr, n)
	if err != nil {
		p.accessFault(err, addr)
	}
	return b
}

// Store writes data at addr; unmapped memory traps.
func (p *Proc) Store(addr vmem.Addr, data []byte) {
	p.access(addr, len(data), true)
	if err := p.Mem.Write(addr, data); err != nil {
		p.accessFault(err, addr)
	}
}

// LoadU32 reads a 32-bit little-endian word.
func (p *Proc) LoadU32(addr vmem.Addr) uint32 {
	p.access(addr, 4, false)
	v, err := p.Mem.ReadU32(addr)
	if err != nil {
		p.accessFault(err, addr)
	}
	return v
}

// StoreU32 writes a 32-bit little-endian word.
func (p *Proc) StoreU32(addr vmem.Addr, v uint32) {
	p.access(addr, 4, true)
	if err := p.Mem.WriteU32(addr, v); err != nil {
		p.accessFault(err, addr)
	}
}

// Memset fills n bytes at addr with b.
func (p *Proc) Memset(addr vmem.Addr, b byte, n int) {
	p.access(addr, n, true)
	if err := p.Mem.Fill(addr, b, n); err != nil {
		p.accessFault(err, addr)
	}
}

// Memcpy copies n bytes from src to dst, the workhorse of every buffer
// overflow in the evaluation.
func (p *Proc) Memcpy(dst, src vmem.Addr, n int) {
	b := p.Load(src, n)
	p.Store(dst, b)
}

// StoreString writes s (no terminator) at addr.
func (p *Proc) StoreString(addr vmem.Addr, s string) { p.Store(addr, []byte(s)) }

// LoadString reads n bytes at addr as a string.
func (p *Proc) LoadString(addr vmem.Addr, n int) string { return string(p.Load(addr, n)) }
