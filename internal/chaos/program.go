// Package chaos is the seeded bug-injection fuzzing harness with a
// differential heap oracle.
//
// A chaos Program is a randomly generated but fully replayable allocation
// workload: a stream of benign malloc/free/realloc/write/read/check
// operations over a fixed slot table, plus injected bug scripts from the
// mmbug classes at chosen steps. The same program runs twice — through a
// real First-Aid machine (sync, parallel validation, or streaming ingest)
// and through a pure-Go shadow model of the *patched* semantics — and the
// oracle asserts, after every recovery, that the machine's live-object
// set, contents and heap.CheckInvariants() agree with the model.
//
// Programs come in four scenario kinds: single-bug soups (the PR-4
// harness), multi-bug programs whose 2–3 scripts interact through shared
// chunks and banked slot/site families, fragmentation/realloc churn
// workloads with mmap spills, and interleaved multi-actor streams. Any
// scenario can additionally protect its corruptible script object as a
// Selfie-style sensitive region, which moves detection from the next use
// to the corrupting event itself.
//
// Everything is a pure function of the seed: the generator uses its own
// xorshift state, the app keeps all state in the virtual heap, and the
// injected scripts reserve object sizes so large that no generator chunk
// (or coalesced run of generator chunks) can ever satisfy them — script
// objects are therefore always carved from the top chunk with
// deterministic adjacency, and recycle each other's chunks exactly. That
// makes every injected bug manifest deterministically whatever the
// surrounding random layout is, which is what lets the oracle be strict.
package chaos

import (
	"fmt"
	"strings"

	"firstaid/internal/mmbug"
)

// OpKind enumerates chaos operations. The first six are the benign
// vocabulary the generator (and the fuzz decoder) emits; the rest only
// appear inside injected bug scripts.
type OpKind uint8

// Benign operations.
const (
	OpMalloc    OpKind = iota // allocate Size bytes into Slot (auto-frees a live occupant)
	OpFree                    // free the object in Slot (keeps the stale address)
	OpRealloc                 // resize the object in Slot to Size bytes
	OpWrite                   // fill the whole object with Pat
	OpRead                    // read the whole object
	OpCheck                   // read the defined prefix and assert every byte == Pat
	OpProtect                 // mark the object in Slot as a sensitive region (may relocate it)
	OpUnprotect               // clear the sensitive-region mark

	numBenignKinds = iota
)

// Injected bug operations (script-only; the wire format cannot express
// them, so fuzz-decoded programs contain them only via a well-formed
// script).
const (
	OpOverflow    OpKind = numBenignKinds + iota // write Size bytes past the object end
	OpDangleWrite                                // write Pat through the slot's stale pointer
	OpDangleRead                                 // read through the stale pointer, assert the old Pat
	OpDoubleFree                                 // free the stale pointer again
	OpUninitRead                                 // read a never-written object, assert zero

	numOpKinds
)

var kindNames = [numOpKinds]string{
	"malloc", "free", "realloc", "write", "read", "check", "protect", "unprotect",
	"overflow", "dangle-write", "dangle-read", "double-free", "uninit-read",
}

func (k OpKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Op is one chaos operation. It maps 1:1 onto a replay.Event (Kind = the
// op-kind name, N = Slot, Data = "size,pat,site"), so chaos programs flow
// unchanged through the offline log, streaming Ingest and the fleet's
// JSON front-end.
type Op struct {
	Kind OpKind
	Slot uint8 // slot-table index
	Site uint8 // call-site family
	Size uint32
	Pat  byte
}

func (o Op) String() string {
	return fmt.Sprintf("%s slot=%d site=%d size=%d pat=%#02x", o.Kind, o.Slot, o.Site, o.Size, o.Pat)
}

// Geometry shared by the generator, the app, the model and the fuzz
// decoder. Generator traffic is confined to the first GenSlots slots,
// GenSites site families and small sizes; injected scripts own the
// remaining slots and sites, and reserved sizes so large that the
// generator's whole footprint (MaxOps chunks of at most
// maxGenSize+overhead bytes, ~36 KiB) cannot coalesce into a chunk that
// would satisfy them.
const (
	GenSlots  = 32 // slots the generator uses
	GenSites  = 8  // site families the generator uses
	slotBytes = 16 // table entry: addr, size, defined, pat|stale

	// Script slots and sites come in banks so multi-bug programs can run
	// up to NumBanks non-interfering scripts, each with its own alloc /
	// aux / free / refree site family — exact-site attribution per bug.
	NumBanks     = 3
	perBankSlots = 4
	perBankSites = 4
	NumSlots     = GenSlots + NumBanks*perBankSlots
	NumSites     = GenSites + NumBanks*perBankSites

	MinGenSize = 8   // smallest generator object
	MaxGenSize = 200 // largest generator object
	MaxOps     = 160 // hard cap on benign ops per program

	sizeVictim = 48000 // overflow victim
	sizeGuard  = 52000 // overflow guard, adjacent to the victim
	sizeDangle = 56000 // dangling/double-free object and its recycler
	sizePin    = 60000 // pins bracketing a to-be-freed object
	sizeUninit = 64000 // uninitialized-read object and the dirtying ancestor

	// sizeSpill is above the allocator's mmap threshold (256 KiB): churn
	// scenarios use it to spill objects into the dedicated-mapping zone.
	sizeSpill = 300000

	overflowDelta  = 48 // bytes written past the victim: smashes the guard's boundary tag and header
	dangleWriteLen = 32 // bytes written through the stale pointer
	probeLen       = 8  // bytes read by dangle-read/uninit-read asserts
)

// Script slot indices of bank 0 (outside the generator's range).
const (
	slotScript0 = GenSlots + iota
	slotScript1
	slotScript2
	slotScript3
)

// Script site families of bank 0 (outside the generator's range). Patches
// diagnosed from an injected bug land exactly on these families.
const (
	siteScriptAlloc = GenSites + iota // the buggy object's allocation site
	siteScriptAux                     // guards, pins, recyclers
	siteScriptFree                    // the buggy (first) free site
	siteScriptFree2                   // the re-free site of a double free
)

// bankSlot returns script slot i of a bank; bankSite returns site family j
// (0 alloc, 1 aux, 2 free, 3 refree) of a bank. Bank 0 equals the
// slotScript*/siteScript* constants.
func bankSlot(bank, i int) uint8 { return uint8(GenSlots + bank*perBankSlots + i) }
func bankSite(bank, j int) uint8 { return uint8(GenSites + bank*perBankSites + j) }

// Fixed script fill patterns. They only need to be mutually distinct and
// non-zero; fixing them keeps decoded fuzz programs deterministic without
// a seed.
const (
	patVictim  = 0x5A
	patGuard   = 0x69
	patDangled = 0x3C
	patRecycle = 0x7E
	patStale   = 0x99
	patPin     = 0x24
)

// Scenario selects the shape of a chaos program.
type Scenario uint8

const (
	ScenarioSingle Scenario = iota // PR-4 soup: one benign stream, at most one bug script
	ScenarioMulti                  // 2–3 interacting bug scripts from a combo, banked slots/sites
	ScenarioChurn                  // fragmentation/realloc-heavy benign stream with mmap spills
	ScenarioActors                 // three interleaved actors, each owning a slot range

	numScenarios = iota
)

var scenarioNames = [numScenarios]string{"single", "multi", "churn", "actors"}

func (s Scenario) String() string {
	if int(s) < len(scenarioNames) {
		return scenarioNames[s]
	}
	return "invalid"
}

// Program is one chaos workload: a benign op stream with one or more bug
// scripts injected. Ops() expands it to the executable stream.
type Program struct {
	Seed     uint64     // generator seed; 0 for fuzz-decoded programs
	Class    mmbug.Type // injected ground truth (None = benign; ignored by ScenarioMulti)
	InjectAt int        // script insertion index into Benign (clamped to [0, len])
	Benign   []Op

	Scenario Scenario
	Combo    int   // ScenarioMulti: index into the combo library (mod NumCombos)
	Protect  bool  // mark the corruptible script object as a sensitive region
	Guard    bool  // run with guard-page sampling always on (rate 1/2)
	Extra    []int // ScenarioMulti: insertion indices for parts beyond the first
}

// comboPart is one bug script inside a multi-bug combo.
type comboPart struct {
	class   mmbug.Type
	bank    int    // slot/site bank the part's script runs in
	variant string // "" = the standard class script; see partScript

	// collateral parts are neutralized as a side effect of another part's
	// patch (e.g. a re-free blocked by that patch's parameter check) and
	// may not surface as their own diagnosis finding.
	collateral bool
}

// comboSpec is a library entry: 2–3 bug scripts whose chunks or patches
// interact, with the full expected bug set recorded for the oracle.
type comboSpec struct {
	name  string
	parts []comboPart
}

var combos = []comboSpec{
	// An overflow smashes the header of a neighbor that is freed later
	// (the free traps on the corrupt header), while an independent double
	// free runs in bank 1. Two faults, two diagnoses, two patches.
	{name: "overflow-header-df", parts: []comboPart{
		{class: mmbug.BufferOverflow, bank: 0, variant: "free-guard"},
		{class: mmbug.DoubleFree, bank: 1},
	}},
	// A dangling write and a double free race over the same recycled
	// chunk: the re-free targets the very pointer the dangling write goes
	// through. The delay-free patch for the dangling write also blocks
	// the re-free (parameter check), so the double free is collateral.
	{name: "dw-refree-shared-chunk", parts: []comboPart{
		{class: mmbug.DanglingWrite, bank: 0},
		{class: mmbug.DoubleFree, bank: 0, variant: "refree-only", collateral: true},
	}},
	// Three independent classes in three banks — the densest soup.
	{name: "overflow-dw-uninit", parts: []comboPart{
		{class: mmbug.BufferOverflow, bank: 0},
		{class: mmbug.DanglingWrite, bank: 1},
		{class: mmbug.UninitRead, bank: 2},
	}},
}

// NumCombos reports the size of the multi-bug combo library.
func NumCombos() int { return len(combos) }

func (p *Program) comboIndex() int {
	n := len(combos)
	return ((p.Combo % n) + n) % n
}

// Script returns the injection script for a bug class in bank 0 — the op
// sequence that plants exactly one deterministic instance of the bug using
// the reserved slots, sites and sizes.
func Script(class mmbug.Type) []Op { return scriptFor(class, 0, false) }

// scriptFor builds the class script in a bank. With protect, the script
// additionally marks its corruptible object as a sensitive region right
// after the object's contents are established, so the corrupting op traps
// eagerly instead of at the next use (BufferOverflow and DanglingWrite
// only; the other classes have no silently-corrupted object to protect).
func scriptFor(class mmbug.Type, bank int, protect bool) []Op {
	s0, s1, s2, s3 := bankSlot(bank, 0), bankSlot(bank, 1), bankSlot(bank, 2), bankSlot(bank, 3)
	alloc, aux, free, free2 := bankSite(bank, 0), bankSite(bank, 1), bankSite(bank, 2), bankSite(bank, 3)
	switch class {
	case mmbug.BufferOverflow:
		// Victim and guard are carved from the top chunk back to back
		// (no smaller free region can serve their reserved sizes), so
		// the overflow smashes the guard's boundary tag, allocator
		// header and leading content; the check assert trips on the
		// content. Under the padding patch the delta lands in the
		// victim's own back padding and the guard survives. Protecting
		// the victim gives it padded canaries up front, so the overflow
		// trips the eager scan at the overflowing event itself.
		ops := []Op{
			{Kind: OpMalloc, Slot: s0, Site: alloc, Size: sizeVictim, Pat: patVictim},
			{Kind: OpMalloc, Slot: s1, Site: aux, Size: sizeGuard, Pat: patGuard},
			{Kind: OpWrite, Slot: s0, Site: alloc, Pat: patVictim},
			{Kind: OpWrite, Slot: s1, Site: aux, Pat: patGuard},
			{Kind: OpOverflow, Slot: s0, Site: alloc, Size: overflowDelta, Pat: patVictim},
			{Kind: OpCheck, Slot: s1, Site: aux, Pat: patGuard},
		}
		if protect {
			ops = insertOp(ops, 1, Op{Kind: OpProtect, Slot: s0, Site: alloc})
		}
		return ops
	case mmbug.DanglingWrite:
		// Pins on both sides keep the freed chunk from coalescing, so
		// the recycler reuses exactly the dangled address; the stale
		// write then corrupts the recycler and its check trips. Under
		// the delay-free patch the chunk is not recycled and the stale
		// write is absorbed. Protecting the dangled object forces its
		// free into a canary-filled quarantine, so the stale write
		// trips the eager scan at the writing event itself.
		ops := []Op{
			{Kind: OpMalloc, Slot: s0, Site: aux, Size: sizePin, Pat: patPin},
			{Kind: OpMalloc, Slot: s1, Site: alloc, Size: sizeDangle, Pat: patDangled},
			{Kind: OpMalloc, Slot: s2, Site: aux, Size: sizePin, Pat: patPin},
			{Kind: OpWrite, Slot: s1, Site: alloc, Pat: patDangled},
			{Kind: OpFree, Slot: s1, Site: free},
			{Kind: OpMalloc, Slot: s3, Site: aux, Size: sizeDangle, Pat: patRecycle},
			{Kind: OpWrite, Slot: s3, Site: aux, Pat: patRecycle},
			{Kind: OpDangleWrite, Slot: s1, Site: free, Pat: patStale},
			{Kind: OpCheck, Slot: s3, Site: aux, Pat: patRecycle},
		}
		if protect {
			ops = insertOp(ops, 4, Op{Kind: OpProtect, Slot: s1, Site: alloc})
		}
		return ops
	case mmbug.DanglingRead:
		// Same recycle construction; the stale read asserts the old
		// pattern and finds the recycler's instead. Delay-free (without
		// canary fill) preserves the contents, so the patched timeline
		// passes.
		return []Op{
			{Kind: OpMalloc, Slot: s0, Site: aux, Size: sizePin, Pat: patPin},
			{Kind: OpMalloc, Slot: s1, Site: alloc, Size: sizeDangle, Pat: patDangled},
			{Kind: OpMalloc, Slot: s2, Site: aux, Size: sizePin, Pat: patPin},
			{Kind: OpWrite, Slot: s1, Site: alloc, Pat: patDangled},
			{Kind: OpFree, Slot: s1, Site: free},
			{Kind: OpMalloc, Slot: s3, Site: aux, Size: sizeDangle, Pat: patRecycle},
			{Kind: OpWrite, Slot: s3, Site: aux, Pat: patRecycle},
			{Kind: OpDangleRead, Slot: s1, Site: free},
		}
	case mmbug.DoubleFree:
		// The re-free hands the stale user pointer straight to the raw
		// allocator, which reads the extension header's flags word as an
		// insane chunk size and aborts. Under delay-free the parameter
		// check blocks the re-free.
		return []Op{
			{Kind: OpMalloc, Slot: s0, Site: alloc, Size: sizeDangle, Pat: patDangled},
			{Kind: OpWrite, Slot: s0, Site: alloc, Pat: patDangled},
			{Kind: OpFree, Slot: s0, Site: free},
			{Kind: OpDoubleFree, Slot: s0, Site: free2},
		}
	case mmbug.UninitRead:
		// An ancestor dirties the reserved chunk and dies; the reader
		// recycles it without writing and asserts zeroed content. Under
		// the zero-fill patch the fresh allocation really is zero.
		return []Op{
			{Kind: OpMalloc, Slot: s0, Site: aux, Size: sizePin, Pat: patPin},
			{Kind: OpMalloc, Slot: s1, Site: aux, Size: sizeUninit, Pat: patDangled},
			{Kind: OpMalloc, Slot: s2, Site: aux, Size: sizePin, Pat: patPin},
			{Kind: OpWrite, Slot: s1, Site: aux, Pat: patDangled},
			{Kind: OpFree, Slot: s1, Site: free},
			{Kind: OpMalloc, Slot: s1, Site: alloc, Size: sizeUninit},
			{Kind: OpUninitRead, Slot: s1, Site: alloc},
		}
	}
	return nil
}

// partScript builds the op sequence for one combo part.
func partScript(part comboPart, protect bool) []Op {
	switch part.variant {
	case "free-guard":
		// Overflow variant whose victim's neighbor is freed *after* the
		// overflow: the free traps on the smashed header instead of a
		// content check, exercising the corrupt-the-header-of-a-
		// later-freed-neighbor interaction. The victim stays live.
		s0, s1 := bankSlot(part.bank, 0), bankSlot(part.bank, 1)
		alloc, aux := bankSite(part.bank, 0), bankSite(part.bank, 1)
		return []Op{
			{Kind: OpMalloc, Slot: s0, Site: alloc, Size: sizeVictim, Pat: patVictim},
			{Kind: OpMalloc, Slot: s1, Site: aux, Size: sizeGuard, Pat: patGuard},
			{Kind: OpWrite, Slot: s0, Site: alloc, Pat: patVictim},
			{Kind: OpWrite, Slot: s1, Site: aux, Pat: patGuard},
			{Kind: OpOverflow, Slot: s0, Site: alloc, Size: overflowDelta, Pat: patVictim},
			{Kind: OpFree, Slot: s1, Site: aux},
		}
	case "refree-only":
		// A bare re-free of another part's dangled slot in the same
		// bank — the shared-chunk half of dw-refree-shared-chunk.
		return []Op{
			{Kind: OpDoubleFree, Slot: bankSlot(part.bank, 1), Site: bankSite(part.bank, 3)},
		}
	default:
		return scriptFor(part.class, part.bank, protect)
	}
}

func insertOp(ops []Op, at int, op Op) []Op {
	out := make([]Op, 0, len(ops)+1)
	out = append(out, ops[:at]...)
	out = append(out, op)
	out = append(out, ops[at:]...)
	return out
}

// ExpectedBug is one entry of a program's ground-truth bug set.
type ExpectedBug struct {
	Class mmbug.Type
	Site  string // full joined site key the patch must land on

	// Collateral bugs are neutralized by another bug's patch and may
	// surface as a blocked re-free instead of their own finding.
	Collateral bool
}

// expectedSite is the exact joined site key diagnosis must attribute a
// class in a bank to: the patched site of alloc-side classes is the bank's
// buggy allocation site, of free-side classes the bank's first-free site.
func expectedSite(class mmbug.Type, bank int) string {
	if class.AtAllocation() {
		return "chaos_alloc/" + siteNames[bankSite(bank, 0)] + "/chaos_dispatch"
	}
	return "chaos_free/" + siteNames[bankSite(bank, 2)] + "/chaos_dispatch"
}

// Expected returns the program's full ground-truth bug set: class plus the
// exact site key each patch must be attributed to.
func (p *Program) Expected() []ExpectedBug {
	if p.Scenario == ScenarioMulti {
		spec := combos[p.comboIndex()]
		out := make([]ExpectedBug, len(spec.parts))
		for i, part := range spec.parts {
			out[i] = ExpectedBug{
				Class:      part.class,
				Site:       expectedSite(part.class, part.bank),
				Collateral: part.collateral,
			}
		}
		return out
	}
	if p.Class == mmbug.None {
		return nil
	}
	return []ExpectedBug{{Class: p.Class, Site: expectedSite(p.Class, 0)}}
}

// Classes returns the distinct injected bug classes, in injection order.
func (p *Program) Classes() []mmbug.Type {
	var out []mmbug.Type
	for _, e := range p.Expected() {
		dup := false
		for _, c := range out {
			if c == e.Class {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e.Class)
		}
	}
	return out
}

// CorruptionIndex returns the index in Ops() of the first silently
// corrupting op (overflow or dangling write), or -1 if the program has
// none. Protected runs must trap at exactly this event; unprotected runs
// trap strictly later — the matrix test asserts the gap.
func (p *Program) CorruptionIndex() int {
	for i, op := range p.Ops() {
		if op.Kind == OpOverflow || op.Kind == OpDangleWrite {
			return i
		}
	}
	return -1
}

// injection is one script splice into the benign stream.
type injection struct {
	at  int
	ops []Op
}

func (p *Program) clampAt(at int) int {
	if at < 0 {
		return 0
	}
	if at > len(p.Benign) {
		return len(p.Benign)
	}
	return at
}

func (p *Program) injections() []injection {
	if p.Scenario == ScenarioMulti {
		spec := combos[p.comboIndex()]
		out := make([]injection, len(spec.parts))
		at := p.clampAt(p.InjectAt)
		for i, part := range spec.parts {
			if i > 0 {
				if i-1 < len(p.Extra) {
					at = p.clampAt(p.Extra[i-1])
				}
				// else: reuse the previous part's index (adjacent splice)
			}
			out[i] = injection{at: at, ops: partScript(part, p.Protect)}
		}
		// Stable sort by insertion index: parts injected at the same
		// index keep their library order, which the shared-chunk combos
		// rely on (the re-free must follow the dangling write's free).
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].at < out[j-1].at; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	script := scriptFor(p.Class, 0, p.Protect)
	if len(script) == 0 {
		return nil
	}
	return []injection{{at: p.clampAt(p.InjectAt), ops: script}}
}

// expand splices every injection into the benign stream, returning the
// executable ops and a parallel injected-op mask.
func (p *Program) expand() ([]Op, []bool) {
	injs := p.injections()
	n := len(p.Benign)
	for _, in := range injs {
		n += len(in.ops)
	}
	ops := make([]Op, 0, n)
	mask := make([]bool, 0, n)
	j := 0
	for i := 0; i <= len(p.Benign); i++ {
		for j < len(injs) && injs[j].at == i {
			for _, op := range injs[j].ops {
				ops = append(ops, op)
				mask = append(mask, true)
			}
			j++
		}
		if i < len(p.Benign) {
			ops = append(ops, p.Benign[i])
			mask = append(mask, false)
		}
	}
	return ops, mask
}

// Ops expands the program into its executable operation stream: the benign
// ops with every bug script spliced in at its insertion index.
func (p *Program) Ops() []Op {
	ops, _ := p.expand()
	return ops
}

// String renders the decoded program — part of every failure report, so a
// failing seed reproduces and shrinks trivially.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos program seed=%#x scenario=%v class=%v inject-at=%d",
		p.Seed, p.Scenario, p.Class, p.InjectAt)
	if p.Scenario == ScenarioMulti {
		fmt.Fprintf(&b, " combo=%s", combos[p.comboIndex()].name)
	}
	if p.Protect {
		b.WriteString(" protect")
	}
	if p.Guard {
		b.WriteString(" guard")
	}
	fmt.Fprintf(&b, " (%d benign ops)\n", len(p.Benign))
	ops, mask := p.expand()
	for i, op := range ops {
		marker := "  "
		if mask[i] {
			marker = "* " // injected
		}
		fmt.Fprintf(&b, "%s#%-3d %v\n", marker, i, op)
	}
	return b.String()
}
