// Package allocext implements First-Aid's lightweight memory allocator
// extension (paper §3).
//
// The extension wraps the underlying Lea-style allocator and operates in
// one of three modes:
//
//   - normal mode: each allocation/deallocation call-site is checked
//     against the patch pool; matching preventive changes are applied.
//   - diagnostic mode: preventive and exposing changes from a ChangeSet
//     are applied to all or a subset of objects, multi-level call-site
//     information is collected, and deallocation parameters are checked
//     for double frees.
//   - validation mode: allocation is randomized and full traces of memory
//     management operations, patch triggers and illegal accesses are kept.
//
// Every object carries 16 bytes of in-heap metadata (magic, allocation
// call-site, user size, flags) — the figure behind the paper's Table 6
// space-overhead measurements. Padding adds 1016 bytes around an object
// (Table 5); delay-freed objects accumulate until a configurable threshold
// (1 MB in the paper's experiments) and are then recycled oldest-first.
package allocext

import (
	"fmt"
	"slices"

	"firstaid/internal/callsite"
	"firstaid/internal/canary"
	"firstaid/internal/guard"
	"firstaid/internal/heap"
	"firstaid/internal/mmbug"
	"firstaid/internal/vmem"
)

// Mode selects the extension's operating mode.
type Mode int

// Operating modes.
const (
	ModeNormal Mode = iota
	ModeDiagnostic
	ModeValidation
)

func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeDiagnostic:
		return "diagnostic"
	case ModeValidation:
		return "validation"
	}
	return "unknown"
}

// Object metadata layout constants.
const (
	// HeaderLen is the in-heap metadata added to every object.
	HeaderLen = 16
	// PadFront and PadBack are the padding sizes of the add-padding
	// change; together 1016 bytes, matching the paper's Table 5.
	PadFront = 512
	PadBack  = 504

	headerMagic = 0xFA1D0BEE // "First-AID OBject
)

// PatchSource supplies the preventive actions of currently-installed
// runtime patches; package patch implements it. A nil PatchSource means no
// patches are installed.
type PatchSource interface {
	// AllocPatch returns the allocation-time action patched at site.
	AllocPatch(site callsite.ID) (AllocAction, bool)
	// FreePatch returns the deallocation-time action patched at site.
	FreePatch(site callsite.ID) (FreeAction, bool)
}

// Object is the extension's record of one allocated (or delay-freed)
// object.
type Object struct {
	User      vmem.Addr // address returned to the program
	Base      vmem.Addr // underlying heap payload (= metadata header address)
	UserSize  uint32
	PadFront  uint32
	PadBack   uint32
	AllocSite callsite.ID
	FreeSite  callsite.ID // set when delay-freed
	Alloc     AllocAction // actions applied at allocation
	Free      FreeAction  // actions applied at deallocation
	Delayed   bool        // currently delay-freed
	Protected bool        // Selfie-style sensitive region: always canaried, eagerly validated
	Guarded   bool        // backed by a sampled guard-page slot, not the raw heap
	written   []uint64    // per-byte init bitmap (validation of zero-fill patches)
}

func (o *Object) overhead() uint64 {
	return uint64(HeaderLen) + uint64(o.PadFront) + uint64(o.PadBack)
}

// totalLen is the full heap payload length backing the object.
func (o *Object) totalLen() uint32 {
	return HeaderLen + o.PadFront + o.UserSize + o.PadBack
}

type markRange struct {
	addr vmem.Addr
	n    int
}

// padRegion is the geometry of a live canary-padded object, and
// freedRegion that of a delay-freed one: a scan reads their canaries from
// these and looks the object up only to name the sites of a corrupted one.
type padRegion struct {
	user, base        vmem.Addr
	size              uint32
	padFront, padBack uint32
}

type freedRegion struct {
	user   vmem.Addr
	size   uint32
	canary bool // payload filled with canary.Freed at the free
}

func padRegionOf(o *Object) padRegion {
	return padRegion{user: o.User, base: o.Base, size: o.UserSize, padFront: o.PadFront, padBack: o.PadBack}
}

// extState is the checkpointable part of the extension.
type extState struct {
	objs       objTable      // by user address; live and delay-freed
	delayQ     []freedRegion // FIFO of delay-freed objects
	delayBytes uint64
	freed      map[vmem.Addr]freedSite // free site of recently freed addrs
	freedSeq   uint32                  // stamp of the latest free remembered
	padded     []padRegion             // live canary-padded objects (scan registry)
	protected  []vmem.Addr             // sensitive-region objects (eager-validation registry)
	marks      []markRange             // Phase-1 heap-marking regions
	metaBytes  uint64                  // current metadata+padding overhead
	padBytes   uint64                  // current padding bytes (live + delayed objects)
	padPeak    uint64                  // peak concurrent padding bytes (Table 5)
}

// freedCap is the freed-address horizon: a free is remembered until
// freedCap later frees have happened, or until its address is reallocated.
const freedCap = 4096

// freedSite is a freed entry: the free site and the stamp of the free
// (extState.freedSeq at the time). The entry counts only while fewer than
// freedCap frees have followed it (extState.remembered); expired entries
// are swept in bulk once the map holds more than 2×freedCap.
type freedSite struct {
	site callsite.ID
	seq  uint32
}

func newExtState() extState {
	return extState{
		objs:  newObjTable(),
		freed: make(map[vmem.Addr]freedSite),
	}
}

// clone copies the state for a checkpoint or a machine clone. The object
// table's groups and leaves are shared, not copied: the caller disowns
// them on the side that goes on mutating (Ext.State, Ext.CopyStateFrom).
// The delay FIFO is shared too. Its owner only pops its front and appends
// past its end, so the entries a copy sees never change, and the copy's
// capacity ends at its length, so its own first append reallocates.
func (s *extState) clone() extState {
	n := len(s.delayQ)
	cp := extState{
		objs:       s.objs.share(),
		delayQ:     s.delayQ[:n:n],
		delayBytes: s.delayBytes,
		freed:      make(map[vmem.Addr]freedSite, len(s.freed)),
		freedSeq:   s.freedSeq,
		padded:     append([]padRegion(nil), s.padded...),
		protected:  append([]vmem.Addr(nil), s.protected...),
		marks:      append([]markRange(nil), s.marks...),
		metaBytes:  s.metaBytes,
		padBytes:   s.padBytes,
		padPeak:    s.padPeak,
	}
	for k, v := range s.freed {
		cp.freed[k] = v
	}
	return cp
}

// remembered reports whether a free recorded as rec still counts: fewer
// than freedCap frees have followed it.
func (s *extState) remembered(rec freedSite) bool { return s.freedSeq-rec.seq < freedCap }

// Ext is the allocator extension.
type Ext struct {
	H     *heap.Heap
	Sites *callsite.Table

	mode    Mode
	changes *ChangeSet  // diagnostic mode
	patches PatchSource // normal and validation modes
	s       extState

	// DelayLimit caps the memory held by delay-freed objects; beyond it
	// the oldest are recycled ("1 MB in our experiments", §7.6.1).
	DelayLimit uint64

	// MaxPatchBytes, when non-zero, disables runtime patching entirely
	// once the extension's space overhead (metadata + padding + delayed
	// objects) exceeds it — the paper's §2 escape hatch: "First-Aid can
	// disable runtime patching … when the memory usage reaches a
	// user-defined threshold. First-Aid allows users to decide how much
	// extra memory space they are willing to pay for better system
	// reliability."
	MaxPatchBytes uint64

	// patchingDisabled latches once MaxPatchBytes is crossed.
	patchingDisabled bool

	manifests ManifestSet
	trace     *Trace // non-nil in validation mode

	// lifetime patch-trigger counters (not rolled back), for Tables 4/5.
	triggers map[callsite.ID]uint64

	// guard, when non-nil, is the sampled guard-page tier: a configurable
	// 1/N of Malloc requests is redirected to guard-page-backed slots
	// instead of the raw heap. Nil keeps the hot path a single pointer
	// check (the telemetry/trace off-discipline).
	guard *guard.Guard

	// watch indexes the interesting objects (padded, delay-freed or
	// init-tracked) by backing region, in address order, for
	// validation-mode access classification. In validation mode each
	// change inserts or deletes one entry; any other mode only marks the
	// index stale, and the next validation access rebuilds it.
	watch      []watchEntry
	watchStale bool

	// Call-sites observed since ResetSeen, in first-seen order: the
	// Phase-2 binary search's candidate sets ("a search range covering
	// all N call-sites after the checkpoint", §4.2).
	seenAllocOrder []callsite.ID
	seenFreeOrder  []callsite.ID
	seenAlloc      map[callsite.ID]bool
	seenFree       map[callsite.ID]bool

	// cost accumulates the simulated cycles the extension itself spends
	// (patch-pool lookups, metadata maintenance, fills); the process
	// drains it via TakeCost after each request. This is the source of
	// the "allocator" bars in the paper's Figure 6.
	cost uint64
}

// New wraps the allocator h. Site information is interned in sites, which
// must be the same table the process uses.
func New(h *heap.Heap, sites *callsite.Table) *Ext {
	return &Ext{
		H:          h,
		Sites:      sites,
		changes:    NewChangeSet(),
		s:          newExtState(),
		DelayLimit: 1 << 20,
		triggers:   map[callsite.ID]uint64{},
	}
}

// Mode returns the current operating mode.
func (e *Ext) Mode() Mode { return e.mode }

// SetMode switches the operating mode.
func (e *Ext) SetMode(m Mode) { e.mode = m }

// SetChanges installs the diagnostic-mode change set.
func (e *Ext) SetChanges(cs *ChangeSet) {
	if cs == nil {
		cs = NewChangeSet()
	}
	e.changes = cs
}

// SetPatches installs the patch source consulted in normal and validation
// modes.
func (e *Ext) SetPatches(p PatchSource) { e.patches = p }

// BeginTrace starts validation tracing; EndTrace returns and detaches the
// trace.
func (e *Ext) BeginTrace() { e.trace = NewTrace() }

// EndTrace stops tracing and returns the collected trace.
func (e *Ext) EndTrace() *Trace {
	t := e.trace
	e.trace = nil
	return t
}

// Manifests returns the manifestations observed since the last reset.
func (e *Ext) Manifests() *ManifestSet { return &e.manifests }

// ResetManifests clears observed manifestations (before a re-execution).
func (e *Ext) ResetManifests() { e.manifests = ManifestSet{} }

// Cost-model constants (cycles). The fixed per-request overhead models the
// patch-pool query and the 16-byte metadata bookkeeping; fills cost per
// byte like any memory traffic.
const (
	costPerRequest  = 38 // pool lookup + header write/check
	costFillPerByte = 4  // zero/canary fill, per 8 bytes
)

// TakeCost drains the extension's accumulated cycle cost; package proc
// charges it to the process clock after each request.
func (e *Ext) TakeCost() uint64 {
	c := e.cost
	e.cost = 0
	return c
}

func (e *Ext) chargeFill(n int) { e.cost += uint64(n) / 8 * costFillPerByte }

// ResetSeen clears the observed call-site sets (before a re-execution).
func (e *Ext) ResetSeen() {
	e.seenAllocOrder, e.seenFreeOrder = nil, nil
	e.seenAlloc = make(map[callsite.ID]bool)
	e.seenFree = make(map[callsite.ID]bool)
}

// SeenAllocSites returns the allocation call-sites observed since
// ResetSeen, in first-seen order.
func (e *Ext) SeenAllocSites() []callsite.ID {
	return append([]callsite.ID(nil), e.seenAllocOrder...)
}

// SeenFreeSites returns the deallocation call-sites observed since
// ResetSeen, in first-seen order.
func (e *Ext) SeenFreeSites() []callsite.ID {
	return append([]callsite.ID(nil), e.seenFreeOrder...)
}

func (e *Ext) noteSeen(site callsite.ID, alloc bool) {
	if e.seenAlloc == nil {
		return
	}
	if alloc {
		if !e.seenAlloc[site] {
			e.seenAlloc[site] = true
			e.seenAllocOrder = append(e.seenAllocOrder, site)
		}
	} else if !e.seenFree[site] {
		e.seenFree[site] = true
		e.seenFreeOrder = append(e.seenFreeOrder, site)
	}
}

// Triggers returns the lifetime patch trigger counts by application point.
func (e *Ext) Triggers() map[callsite.ID]uint64 { return e.triggers }

// SetGuard attaches the sampled guard-page tier (nil detaches). Attach
// before any allocation and before SetState: the guard's sampling-decision
// state checkpoints together with the extension's.
func (e *Ext) SetGuard(g *guard.Guard) { e.guard = g }

// Guard returns the attached guard tier (nil when sampling is off).
func (e *Ext) Guard() *guard.Guard { return e.guard }

// GuardHit classifies a trapped unmapped-page access against the guard
// tier's live and quarantined slots; ok is false when sampling is off or
// the address belongs to no guarded slot.
func (e *Ext) GuardHit(addr vmem.Addr, n int, write bool) (guard.Hit, bool) {
	if e.guard == nil {
		return guard.Hit{}, false
	}
	return e.guard.Hit(addr, n, write)
}

// GuardBoost promotes a call-site to the guard tier's always-sample set
// (no-op when sampling is off).
func (e *Ext) GuardBoost(site callsite.ID) {
	if e.guard != nil {
		e.guard.Boost(site)
	}
}

// extCheckpoint bundles the extension state with the guard tier's
// sampling-decision state: re-execution must replay the exact same
// sampling decisions or guarded layouts would diverge across rollbacks.
type extCheckpoint struct {
	ext   extState
	guard interface{}
}

// State snapshots the extension for a checkpoint. The snapshot shares the
// object table's groups and leaves with the live extension, which copies
// each one before it first changes it.
func (e *Ext) State() interface{} {
	st := e.s.clone()
	e.s.objs.disown()
	if e.guard == nil {
		return &st
	}
	return &extCheckpoint{ext: st, guard: e.guard.State()}
}

// SetState restores a snapshot taken by State.
func (e *Ext) SetState(v interface{}) {
	switch st := v.(type) {
	case *extState:
		e.s = st.clone()
	case *extCheckpoint:
		e.s = st.ext.clone()
		if e.guard != nil {
			e.guard.SetState(st.guard)
		}
	default:
		panic("allocext: unknown checkpoint state type")
	}
	e.watchStale = true
}

// CopyStateFrom gives e a copy of src's state, guard tier included —
// SetState(src.State()) with one copy instead of two. The two extensions
// share the object table copy-on-write, so neither sees the other's
// changes. As with SetState, attach the guard first.
func (e *Ext) CopyStateFrom(src *Ext) {
	e.s = src.s.clone()
	src.s.objs.disown()
	if e.guard != nil && src.guard != nil {
		e.guard.CopyStateFrom(src.guard)
	}
	e.watchStale = true
}

// --- statistics -------------------------------------------------------------

// LiveObjects returns the number of live (non-delayed) objects.
func (e *Ext) LiveObjects() int {
	n := 0
	e.s.objs.each(func(o *Object) bool {
		if !o.Delayed {
			n++
		}
		return true
	})
	return n
}

// DelayedBytes returns the memory currently held by delay-freed objects.
func (e *Ext) DelayedBytes() uint64 { return e.s.delayBytes }

// DelayedObjects returns the number of delay-freed objects held.
func (e *Ext) DelayedObjects() int { return len(e.s.delayQ) }

// MetaBytes returns the current metadata+padding overhead in bytes.
func (e *Ext) MetaBytes() uint64 { return e.s.metaBytes }

// PadPeak returns the peak concurrent padding bytes (Table 5's padding
// space overhead).
func (e *Ext) PadPeak() uint64 { return e.s.padPeak }

// --- action resolution -------------------------------------------------------

// patchBudgetOK enforces MaxPatchBytes; once latched, patches stay off
// until ResetPatchBudget (a policy decision left to the operator).
func (e *Ext) patchBudgetOK() bool {
	if e.patchingDisabled {
		return false
	}
	if e.MaxPatchBytes != 0 && e.s.metaBytes+e.s.delayBytes > e.MaxPatchBytes {
		e.patchingDisabled = true
		return false
	}
	return true
}

// PatchingDisabled reports whether the space budget shut patching off.
func (e *Ext) PatchingDisabled() bool { return e.patchingDisabled }

// ResetPatchBudget re-enables patching after a budget trip.
func (e *Ext) ResetPatchBudget() { e.patchingDisabled = false }

func (e *Ext) allocActionFor(site callsite.ID) (act AllocAction, patched bool) {
	switch e.mode {
	case ModeDiagnostic:
		return e.changes.AllocFor(site), false
	default:
		if e.patches != nil && e.patchBudgetOK() {
			if a, ok := e.patches.AllocPatch(site); ok {
				return a, true
			}
		}
		return AllocAction{}, false
	}
}

func (e *Ext) freeActionFor(site callsite.ID) (act FreeAction, patched bool) {
	switch e.mode {
	case ModeDiagnostic:
		return e.changes.FreeFor(site), false
	default:
		if e.patches != nil && e.patchBudgetOK() {
			if a, ok := e.patches.FreePatch(site); ok {
				return a, true
			}
		}
		return FreeAction{}, false
	}
}

// paramCheckActive reports whether the deallocation parameter check guards
// this free site: in diagnostic mode whenever environmental changes are
// active (the check is double free's exposing change, Table 1 — but a
// *plain* re-execution must reproduce the original crash), and in
// normal/validation mode when a delay-free patch is installed at the site.
func (e *Ext) paramCheckActive(site callsite.ID) bool {
	if e.mode == ModeDiagnostic {
		return !e.changes.Empty()
	}
	if e.patches != nil {
		if a, ok := e.patches.FreePatch(site); ok && a.Delay {
			return true
		}
	}
	return false
}

// --- allocation ---------------------------------------------------------------

// Malloc implements the allocation half of proc.MM.
func (e *Ext) Malloc(n uint32, site callsite.ID) (vmem.Addr, error) {
	e.noteSeen(site, true)
	e.cost += costPerRequest
	act, patched := e.allocActionFor(site)
	var user vmem.Addr
	var err error
	if e.guard != nil && e.guard.Decide(n, site) {
		user, err = e.guardMalloc(n, site, act)
	} else {
		user, err = e.mallocWithAction(n, site, act)
	}
	if err != nil {
		return 0, err
	}
	if patched {
		e.triggers[site]++
	}
	if e.trace != nil {
		e.trace.Ops = append(e.trace.Ops, MMOp{Alloc: true, Site: site, Addr: user, Size: n, Patched: patched && act.Any()})
		if patched && act.Any() {
			e.trace.Triggers[site]++
		}
	}
	return user, nil
}

// mallocWithAction carves and initialises one object with an explicit
// action set; the action-resolution and patch-accounting policy stays with
// the callers (Malloc, and Protect's guarded migration).
func (e *Ext) mallocWithAction(n uint32, site callsite.ID, act AllocAction) (vmem.Addr, error) {
	var padF, padB uint32
	if act.Pad || act.PadCanary {
		padF, padB = PadFront, PadBack
	}
	total := HeaderLen + padF + n + padB
	base, err := e.H.Malloc(total)
	if err != nil {
		return 0, err
	}
	mem := e.H.Mem()
	user := base + HeaderLen + padF

	// In-heap metadata header.
	if err := mem.WriteU32(base, headerMagic); err != nil {
		return 0, err
	}
	mem.WriteU32(base+4, uint32(site))
	mem.WriteU32(base+8, n)
	var flags uint32
	if padF > 0 {
		flags |= 1
	}
	mem.WriteU32(base+12, flags)

	if act.PadCanary {
		canary.Fill(mem, base+HeaderLen, int(padF), canary.Pad)
		canary.Fill(mem, user+n, int(padB), canary.Pad)
		e.chargeFill(int(padF) + int(padB))
	}
	if act.Zero {
		mem.Fill(user, 0, int(n))
		e.chargeFill(int(n))
	}
	if act.CanaryNew {
		canary.Fill(mem, user, int(n), canary.Fresh)
		e.chargeFill(int(n))
	}

	obj := &Object{
		User:      user,
		Base:      base,
		UserSize:  n,
		PadFront:  padF,
		PadBack:   padB,
		AllocSite: site,
		Alloc:     act,
	}
	e.addObject(obj)

	// The address may recycle a previously freed object's slot; the old
	// "freed" record is now stale.
	delete(e.s.freed, user)
	e.dropMarksNear(base, total)
	return user, nil
}

// guardMalloc places one sampled object in a guard-page-backed vmem slot
// instead of the raw heap. The object honours the same action set as the
// heap path (padding, canaries, zero fill, identical fill costs) so that a
// diagnostic probe's environmental changes behave identically on sampled
// objects — but it writes no in-heap metadata header: the slot's bounds
// live in the guard tier, and Object.Base is the *virtual* header position
// (used only in address comparisons, never dereferenced). On guard-zone
// exhaustion the request falls back to the raw heap.
func (e *Ext) guardMalloc(n uint32, site callsite.ID, act AllocAction) (vmem.Addr, error) {
	var padF, padB uint32
	if act.Pad || act.PadCanary {
		padF, padB = PadFront, PadBack
	}
	sl, err := e.guard.Alloc(n, padF, padB, site)
	if err != nil {
		return e.mallocWithAction(n, site, act)
	}
	mem := e.H.Mem()
	user := sl.User

	if act.PadCanary {
		canary.Fill(mem, user-vmem.Addr(padF), int(padF), canary.Pad)
		canary.Fill(mem, user+vmem.Addr(n), int(padB), canary.Pad)
		e.chargeFill(int(padF) + int(padB))
	}
	if act.Zero {
		mem.Fill(user, 0, int(n))
		e.chargeFill(int(n))
	}
	if act.CanaryNew {
		canary.Fill(mem, user, int(n), canary.Fresh)
		e.chargeFill(int(n))
	}

	obj := &Object{
		User:      user,
		Base:      user - vmem.Addr(padF) - HeaderLen,
		UserSize:  n,
		PadFront:  padF,
		PadBack:   padB,
		AllocSite: site,
		Alloc:     act,
		Guarded:   true,
	}
	e.addObject(obj)
	return user, nil
}

// addObject records a freshly carved object: the object table, the scan
// registry if it is canary-padded, the space accounting and the watch
// index. Validation tracks initialisation of zero-filled objects.
func (e *Ext) addObject(o *Object) {
	if e.mode == ModeValidation && o.Alloc.Zero {
		o.written = make([]uint64, (o.UserSize+63)/64)
	}
	e.s.objs.put(o)
	if o.Alloc.PadCanary {
		e.s.padded = append(e.s.padded, padRegionOf(o))
	}
	e.accountAlloc(o)
	if interesting(o) {
		e.watchAdd(o)
	}
}

func (e *Ext) accountAlloc(o *Object) {
	e.s.metaBytes += o.overhead()
	if pad := uint64(o.PadFront) + uint64(o.PadBack); pad > 0 {
		e.s.padBytes += pad
		if e.s.padBytes > e.s.padPeak {
			e.s.padPeak = e.s.padBytes
		}
	}
}

// accountRelease reverses accountAlloc when an object's memory is actually
// returned to the raw allocator.
func (e *Ext) accountRelease(o *Object) {
	e.s.metaBytes -= o.overhead()
	e.s.padBytes -= uint64(o.PadFront) + uint64(o.PadBack)
}

// --- deallocation --------------------------------------------------------------

// Free implements the deallocation half of proc.MM.
func (e *Ext) Free(ptr vmem.Addr, site callsite.ID) error {
	e.noteSeen(site, false)
	e.cost += costPerRequest
	obj := e.s.objs.get(ptr)
	if obj == nil {
		// Not a live object: double free of a fully-recycled pointer,
		// or a wild free.
		if rec, wasFreed := e.s.freed[ptr]; wasFreed && e.s.remembered(rec) {
			first := rec.site
			// The patch application point is the *first* deallocation
			// site — the premature free that characterises the
			// bug-triggering objects; delaying there keeps the object
			// alive so the re-free is caught by the parameter check.
			e.manifests.Add(Manifestation{
				Bug:      mmbug.DoubleFree,
				FreeSite: first,
				Addr:     ptr,
				Detail:   fmt.Sprintf("object freed at site %d re-freed at site %d", first, site),
			})
			// The parameter check guards the re-free when the patch covers
			// either site: the re-free's own, or the first deallocation
			// site — the patch application point. The latter matters when
			// the recovery checkpoint falls between the two frees: the
			// first free is then history (executed unpatched, before the
			// checkpoint), so only its site's patch can vouch for this
			// pointer. Found by the chaos harness (seed 0x2a, double
			// free): the re-free kept crashing the patched re-execution
			// and the event was dropped instead of survived.
			if e.paramCheckActive(site) || e.paramCheckActive(first) {
				e.recordBlockedRefree(ptr, site)
				return nil
			}
		}
		// A re-freed guarded pointer: the guard tier's quarantine, not the
		// freed ring, remembers sampled frees — guard addresses never
		// recycle, so ring entries for them would pile up and permanently
		// grow the freed map every raw free pays to probe. Same
		// manifestation and parameter-check handling as the ring path;
		// unprotected, the pointer must still not reach the raw allocator
		// (its backing pages are unmapped — the heap would trap reading a
		// header that was never written), so surface the allocator's own
		// invalid-free error instead.
		if e.guard != nil {
			if first, quarantined := e.guard.QuarFreeSite(ptr); quarantined {
				e.manifests.Add(Manifestation{
					Bug:      mmbug.DoubleFree,
					FreeSite: first,
					Addr:     ptr,
					Detail:   fmt.Sprintf("guarded object freed at site %d re-freed at site %d", first, site),
				})
				if e.paramCheckActive(site) || e.paramCheckActive(first) {
					e.recordBlockedRefree(ptr, site)
					return nil
				}
				return fmt.Errorf("%w: pointer %#x re-freed after guard-page quarantine", heap.ErrBadFree, ptr)
			}
		}
		// Unprotected: hand the bogus pointer to the raw allocator,
		// which faults the way glibc would.
		return e.H.Free(ptr)
	}

	if obj.Delayed {
		// Double free caught while the first free is still delayed.
		e.manifests.Add(Manifestation{
			Bug:       mmbug.DoubleFree,
			AllocSite: obj.AllocSite,
			FreeSite:  obj.FreeSite,
			Addr:      ptr,
			Detail:    fmt.Sprintf("object delay-freed at site %d re-freed at site %d", obj.FreeSite, site),
		})
		// The delay-free itself neutralises the re-free; this is the
		// "delay free + check parameters" patch of Table 1.
		e.recordBlockedRefree(ptr, site)
		return nil
	}

	// Overflow evidence check at object death: corrupted pad canary.
	if obj.Alloc.PadCanary {
		e.checkPadding(padRegionOf(obj))
		e.removePadded(ptr)
	}

	act, patched := e.freeActionFor(site)
	if obj.Protected && e.protectionActive() {
		// Sensitive regions always quarantine: the freed object keeps its
		// canary so a dangling write to it is trapped at the next
		// touchpoint, and any re-free is blocked by the Delayed branch
		// above — regardless of installed patches.
		act.Delay = true
		act.CanaryFill = true
	}
	if patched {
		e.triggers[site]++
	}
	if act.Delay {
		watched := interesting(obj)
		obj = e.s.objs.mut(ptr)
		obj.Delayed = true
		obj.FreeSite = site
		obj.Free = act
		if !watched {
			e.watchAdd(obj)
		}
		if act.CanaryFill {
			canary.Fill(e.H.Mem(), obj.User, int(obj.UserSize), canary.Freed)
			e.chargeFill(int(obj.UserSize))
		}
		e.s.delayQ = append(e.s.delayQ, freedRegion{user: ptr, size: obj.UserSize, canary: act.CanaryFill})
		e.s.delayBytes += uint64(obj.totalLen())
		if !obj.Guarded {
			e.rememberFreed(ptr, site)
		}
		if e.trace != nil {
			e.trace.Ops = append(e.trace.Ops, MMOp{Site: site, Addr: ptr, Size: obj.UserSize, Patched: patched, Delayed: true})
			if patched {
				e.trace.Triggers[site]++
			}
		}
		e.enforceDelayLimit()
		return nil
	}

	// Immediate free.
	if obj.Protected {
		// Only reachable while protection is dormant (probe replays).
		e.Unprotect(ptr, site)
	}
	e.releaseObject(obj)
	// Guarded frees are remembered by the quarantine instead of the freed
	// ring: their addresses never recycle, so ring entries would only pile
	// up (see the re-free branch above).
	if !obj.Guarded {
		e.rememberFreed(ptr, site)
	}
	if e.trace != nil {
		e.trace.Ops = append(e.trace.Ops, MMOp{Site: site, Addr: ptr, Size: obj.UserSize, Patched: patched})
		if patched {
			e.trace.Triggers[site]++
		}
	}
	if obj.Guarded {
		// Unmap the slot and quarantine it: any dangling access through
		// this pointer now traps at the faulting instruction.
		e.guard.Release(ptr, site)
		return nil
	}
	return e.H.Free(obj.Base)
}

func (e *Ext) recordBlockedRefree(ptr vmem.Addr, site callsite.ID) {
	e.triggers[site]++
	if e.trace != nil {
		e.trace.Ops = append(e.trace.Ops, MMOp{Site: site, Addr: ptr, Patched: true})
		e.trace.Triggers[site]++
		e.trace.Illegal = append(e.trace.Illegal, IllegalAccess{
			Kind:      RefreeBlocked,
			PatchSite: site,
			Instr:     "free",
			Obj:       ptr,
		})
	}
}

func (e *Ext) rememberFreed(ptr vmem.Addr, site callsite.ID) {
	e.s.freedSeq++
	e.s.freed[ptr] = freedSite{site: site, seq: e.s.freedSeq}
	if len(e.s.freed) > 2*freedCap {
		for k, rec := range e.s.freed {
			if !e.s.remembered(rec) {
				delete(e.s.freed, k)
			}
		}
	}
}

// releaseObject forgets an object whose memory goes back to the raw
// allocator or the guard tier: its record, its space and its watch entry.
func (e *Ext) releaseObject(o *Object) {
	e.s.objs.del(o.User)
	e.accountRelease(o)
	if interesting(o) {
		e.watchDel(o)
	}
}

// enforceDelayLimit recycles the oldest delay-freed objects once their
// accumulated footprint exceeds DelayLimit. Protected objects are never
// recycled: releasing a sensitive region's quarantine would hand its memory
// back to the raw allocator while stale pointers may still target it,
// silently voiding the guarantee the application paid for.
func (e *Ext) enforceDelayLimit() {
	var kept []freedRegion
	for e.s.delayBytes > e.DelayLimit && len(e.s.delayQ) > 0 {
		old := e.s.delayQ[0]
		e.s.delayQ = e.s.delayQ[1:]
		obj := e.s.objs.get(old.user)
		if obj == nil || !obj.Delayed {
			continue
		}
		if obj.Protected {
			kept = append(kept, old)
			continue
		}
		e.s.delayBytes -= uint64(obj.totalLen())
		e.releaseObject(obj)
		// Deallocating very old delay-freed objects is usually safe
		// (paper §2); a re-triggered bug would surface again and be
		// re-diagnosed. A guarded object's slot is unmapped instead of
		// handed back to the heap — late dangling accesses still trap.
		if obj.Guarded {
			e.guard.Release(old.user, obj.FreeSite)
		} else {
			e.H.Free(obj.Base)
		}
	}
	if len(kept) > 0 {
		e.s.delayQ = append(kept, e.s.delayQ...)
	}
}

func (e *Ext) removePadded(ptr vmem.Addr) {
	for i, p := range e.s.padded {
		if p.user == ptr {
			e.s.padded = append(e.s.padded[:i], e.s.padded[i+1:]...)
			return
		}
	}
}

// --- sensitive regions (Selfie-style protected objects) -----------------------

// protectionActive reports whether sensitive-region semantics (migration,
// forced quarantine, eager validation) are in force. They hold in normal
// mode and during plain diagnostic re-execution (so a protected-region trap
// reproduces deterministically for the nondeterminism screen), but are
// dormant under diagnostic change sets and in validation replays, where the
// probe's change set alone must decide the object layout and outcome.
func (e *Ext) protectionActive() bool {
	switch e.mode {
	case ModeNormal:
		return true
	case ModeDiagnostic:
		return e.changes.Empty()
	default:
		return false
	}
}

// Protect marks the live object at user as a sensitive region. When
// protection is active and the object is not already canary-padded it is
// migrated to a fresh padded+canaried allocation (contents copied, original
// allocation site preserved, old chunk released); the possibly-new user
// address is returned. Protecting an unknown or delay-freed address, or
// re-protecting, is a no-op.
func (e *Ext) Protect(user vmem.Addr, site callsite.ID) (vmem.Addr, error) {
	e.cost += costPerRequest
	obj := e.s.objs.get(user)
	if obj == nil || obj.Delayed {
		return user, nil
	}
	if obj.Protected {
		return user, nil
	}
	if !e.protectionActive() || obj.Alloc.PadCanary {
		// Dormant (probe replay), or the object already carries canaried
		// padding (e.g. an installed add-padding patch): mark in place.
		e.s.objs.mut(user).Protected = true
		e.s.protected = append(e.s.protected, user)
		return user, nil
	}
	act := AllocAction{PadCanary: true}
	nu, err := e.mallocWithAction(obj.UserSize, obj.AllocSite, act)
	if err != nil {
		return 0, err
	}
	mem := e.H.Mem()
	if obj.UserSize > 0 {
		data, rerr := mem.Read(obj.User, int(obj.UserSize))
		if rerr != nil {
			return 0, rerr
		}
		if werr := mem.Write(nu, data); werr != nil {
			return 0, werr
		}
		e.chargeFill(int(obj.UserSize))
	}
	e.s.objs.mut(nu).Protected = true
	e.s.protected = append(e.s.protected, nu)
	// Release the original immediately: this is an internal move, not a
	// program free, so it records no freed-site history.
	e.releaseObject(obj)
	if obj.Guarded {
		e.guard.Release(obj.User, site)
	} else if err := e.H.Free(obj.Base); err != nil {
		return 0, err
	}
	return nu, nil
}

// Unprotect clears the sensitive-region mark on the object at user; its
// padding (if any) stays, it simply loses eager validation and forced
// quarantine.
func (e *Ext) Unprotect(user vmem.Addr, site callsite.ID) {
	e.cost += costPerRequest
	if obj := e.s.objs.get(user); obj == nil || !obj.Protected {
		return
	}
	e.s.objs.mut(user).Protected = false
	for i, p := range e.s.protected {
		if p == user {
			e.s.protected = append(e.s.protected[:i], e.s.protected[i+1:]...)
			break
		}
	}
}

// IsProtected reports whether the object at user is a sensitive region
// (proc.ProtectingMM support; realloc uses it to carry protection over).
func (e *Ext) IsProtected(user vmem.Addr) bool {
	obj := e.s.objs.get(user)
	return obj != nil && obj.Protected
}

// ProtectedObjects returns the number of registered sensitive regions.
func (e *Ext) ProtectedObjects() int { return len(e.s.protected) }

// ProtectedViolation describes corruption of a sensitive region caught by
// the eager check.
type ProtectedViolation struct {
	Addr      vmem.Addr
	AllocSite callsite.ID
	FreeSite  callsite.ID
	Delayed   bool
	Detail    string
}

// CheckProtected eagerly validates every sensitive region's canaries —
// padding of live objects, fill of quarantined ones. The monitor calls it
// after each event, so corruption of a protected object traps at the event
// that caused it instead of the next checkpoint scan. Corruption already
// neutralised by an installed patch at the object's allocation or
// deallocation site is suppressed (the patched re-execution must not
// re-trap on the absorbed write).
func (e *Ext) CheckProtected() *ProtectedViolation {
	if len(e.s.protected) == 0 || !e.protectionActive() {
		return nil
	}
	mem := e.H.Mem()
	for _, p := range e.s.protected {
		obj := e.s.objs.get(p)
		if obj == nil || !obj.Protected {
			// Released while protection was dormant, or the address was
			// recycled by an unrelated allocation.
			continue
		}
		e.cost += uint64(obj.UserSize)/8*costFillPerByte + costPerRequest
		if obj.Delayed {
			if !obj.Free.CanaryFill {
				continue
			}
			if c := canary.Check(mem, obj.User, int(obj.UserSize), canary.Freed); c.Corrupted() {
				if e.suppressedByPatch(obj) {
					continue
				}
				return &ProtectedViolation{
					Addr:      obj.User,
					AllocSite: obj.AllocSite,
					FreeSite:  obj.FreeSite,
					Delayed:   true,
					Detail:    fmt.Sprintf("protected quarantined object at %#x overwritten (%d bytes)", obj.User, len(c.Offsets)),
				}
			}
			continue
		}
		if !obj.Alloc.PadCanary {
			continue
		}
		back := canary.Check(mem, obj.User+obj.UserSize, int(obj.PadBack), canary.Pad)
		front := canary.Check(mem, obj.Base+HeaderLen, int(obj.PadFront), canary.Pad)
		if back.Corrupted() || front.Corrupted() {
			if e.suppressedByPatch(obj) {
				continue
			}
			return &ProtectedViolation{
				Addr:      obj.User,
				AllocSite: obj.AllocSite,
				Detail:    fmt.Sprintf("protected object at %#x: guard canary overwritten", obj.User),
			}
		}
	}
	return nil
}

// suppressedByPatch reports whether an installed patch already absorbs the
// corruption of this protected object: padding at its allocation site for
// live objects, delay-free at its deallocation site for quarantined ones.
func (e *Ext) suppressedByPatch(obj *Object) bool {
	if e.mode != ModeNormal || e.patches == nil {
		return false
	}
	if obj.Delayed {
		a, ok := e.patches.FreePatch(obj.FreeSite)
		return ok && a.Delay
	}
	a, ok := e.patches.AllocPatch(obj.AllocSite)
	return ok && (a.Pad || a.PadCanary)
}

// --- canary scanning -----------------------------------------------------------

// checkPadding scans one padded object's canaries and records an overflow
// manifestation if they were overwritten. Only a corrupted region looks its
// object up, for the allocation site.
func (e *Ext) checkPadding(r padRegion) {
	mem := e.H.Mem()
	back := canary.Check(mem, r.user+r.size, int(r.padBack), canary.Pad)
	front := canary.Check(mem, r.base+HeaderLen, int(r.padFront), canary.Pad)
	if !back.Corrupted() && !front.Corrupted() {
		return
	}
	site := e.s.objs.get(r.user).AllocSite
	if back.Corrupted() {
		offs := make([]int, len(back.Offsets))
		for i, o := range back.Offsets {
			offs[i] = int(r.size) + o
		}
		e.manifests.Add(Manifestation{
			Bug:       mmbug.BufferOverflow,
			AllocSite: site,
			Addr:      r.user,
			Offsets:   offs,
			Detail:    fmt.Sprintf("%d bytes of rear padding overwritten", len(offs)),
		})
	}
	if front.Corrupted() {
		offs := make([]int, len(front.Offsets))
		for i, o := range front.Offsets {
			offs[i] = o - int(r.padFront)
		}
		e.manifests.Add(Manifestation{
			Bug:       mmbug.BufferOverflow,
			AllocSite: site,
			Addr:      r.user,
			Offsets:   offs,
			Detail:    fmt.Sprintf("%d bytes of front padding overwritten (underflow)", len(offs)),
		})
	}
}

// Scan checks every canary region — padded objects, canary-filled
// delay-freed objects and heap-marking regions — recording manifestations
// for corrupted ones. The error monitor calls this between events during
// diagnostic re-execution and at the failure point. It walks the regions'
// geometry in the scan registry, the delay FIFO and the marks; the object
// table is read only to name the sites of a corrupted object.
func (e *Ext) Scan() {
	mem := e.H.Mem()
	for _, r := range e.s.padded {
		e.checkPadding(r)
	}
	for _, r := range e.s.delayQ {
		if !r.canary {
			continue
		}
		if c := canary.Check(mem, r.user, int(r.size), canary.Freed); c.Corrupted() {
			obj := e.s.objs.get(r.user)
			e.manifests.Add(Manifestation{
				Bug:       mmbug.DanglingWrite,
				AllocSite: obj.AllocSite,
				FreeSite:  obj.FreeSite,
				Addr:      r.user,
				Offsets:   c.Offsets,
				Detail:    fmt.Sprintf("%d bytes of delay-freed object overwritten", len(c.Offsets)),
			})
		}
	}
	for _, m := range e.s.marks {
		if c := canary.Check(mem, m.addr, m.n, canary.Mark); c.Corrupted() {
			e.manifests.Add(Manifestation{
				Bug:      mmbug.DanglingWrite, // or overflow: either way, pre-checkpoint
				Addr:     m.addr,
				Offsets:  c.Offsets,
				FromMark: true,
				Detail:   "heap-marking canary overwritten: bug triggered before checkpoint",
			})
		}
	}
	// A canary-filled delay-freed object that was *fully* re-corrupted
	// would be caught above; scanning is deduplicated by the diagnosis
	// engine, which treats manifests as evidence sets.
}

// MarkHeap canary-fills every free chunk (skipping the allocator's
// free-list links) and the head of the top chunk — the Phase-1 heap-marking
// technique of §4.1 that exposes bugs triggered before the checkpoint.
func (e *Ext) MarkHeap() error {
	e.s.marks = nil
	chunks, err := e.H.FreeChunks()
	if err != nil {
		return err
	}
	mem := e.H.Mem()
	for _, c := range chunks {
		// Skip the 8-byte fd/bk links at the start of the payload.
		start := c.Payload + 8
		n := int(c.Size) - heapHeaderLen - 8
		if c.Top {
			// "Padding after the last memory object": mark only the
			// head of the top chunk.
			if n > 1024 {
				n = 1024
			}
		}
		if n <= 0 {
			continue
		}
		if err := canary.Fill(mem, start, n, canary.Mark); err != nil {
			return err
		}
		e.s.marks = append(e.s.marks, markRange{addr: start, n: n})
	}
	return nil
}

// heapHeaderLen mirrors the chunk header size of package heap.
const heapHeaderLen = 8

// dropMarksNear discards heap-marking ranges that overlap (or closely
// neighbour) a newly carved chunk: the allocator legitimately writes
// split-chunk headers and free-list links there, which must not read as
// corruption.
func (e *Ext) dropMarksNear(base vmem.Addr, total uint32) {
	if len(e.s.marks) == 0 {
		return
	}
	const slack = 64
	lo := int64(base) - slack - heapHeaderLen
	hi := int64(base) + int64(total) + slack
	kept := e.s.marks[:0]
	for _, m := range e.s.marks {
		mlo, mhi := int64(m.addr), int64(m.addr)+int64(m.n)
		if mhi <= lo || mlo >= hi {
			kept = append(kept, m)
		}
	}
	e.s.marks = kept
}

// --- object queries -------------------------------------------------------------

// Object returns the record for the exact user address, if any. The record
// is read-only.
func (e *Ext) Object(user vmem.Addr) (*Object, bool) {
	o := e.s.objs.get(user)
	return o, o != nil
}

// UserSize reports the live object's user size (proc.Realloc support).
func (e *Ext) UserSize(user vmem.Addr) (uint32, bool) {
	if o := e.s.objs.get(user); o != nil && !o.Delayed {
		return o.UserSize, true
	}
	return 0, false
}

// --- validation-mode access instrumentation --------------------------------------

// interesting reports whether the object must be visible to access
// classification: it has padding, is delay-freed, or tracks initialisation.
func interesting(o *Object) bool {
	return o.Delayed || o.PadFront > 0 || o.PadBack > 0 || o.written != nil
}

// watchEntry is one interesting object in the watch index: its backing
// region [base, end) and its user address, the key of its record. Entries
// hold addresses rather than records, so a copy-on-write leaf copy, which
// moves records, leaves the index valid.
type watchEntry struct{ base, end, user vmem.Addr }

func watchEntryOf(o *Object) watchEntry {
	return watchEntry{base: o.Base, end: o.Base + vmem.Addr(o.totalLen()), user: o.User}
}

// watchAdd and watchDel keep the index in step with an object that becomes,
// or stops being, interesting. Outside validation mode they only mark the
// index stale: nothing reads it there, and a rollback replaces the state
// wholesale anyway.
func (e *Ext) watchAdd(o *Object) {
	if e.mode != ModeValidation || e.watchStale {
		e.watchStale = true
		return
	}
	e.watch = slices.Insert(e.watch, e.watchSearch(o.Base), watchEntryOf(o))
}

func (e *Ext) watchDel(o *Object) {
	if e.mode != ModeValidation || e.watchStale {
		e.watchStale = true
		return
	}
	if i := e.watchSearch(o.Base); i < len(e.watch) && e.watch[i].user == o.User {
		e.watch = slices.Delete(e.watch, i, i+1)
	} else {
		// Out of step (TestQuickWatchIndexMatchesBruteForce pins that
		// this does not happen): rebuild rather than delete a neighbour.
		e.watchStale = true
	}
}

// watchSearch returns the index of the first entry that ends past addr.
func (e *Ext) watchSearch(addr vmem.Addr) int {
	lo, hi := 0, len(e.watch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.watch[mid].end <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rebuildWatch regenerates the index from the object table. Objects'
// backing regions are disjoint and each holds its user address, so the
// table's user-address order is also the regions' order.
func (e *Ext) rebuildWatch() {
	e.watch = e.watch[:0]
	e.s.objs.each(func(o *Object) bool {
		if interesting(o) {
			e.watch = append(e.watch, watchEntryOf(o))
		}
		return true
	})
	e.watchStale = false
}

// watchAt returns the interesting object whose backing region overlaps
// [addr, end) — the lowest one, if the access spans several — or nil.
func (e *Ext) watchAt(addr, end vmem.Addr) *Object {
	if e.watchStale {
		e.rebuildWatch()
	}
	if i := e.watchSearch(addr); i < len(e.watch) && e.watch[i].base < end {
		return e.s.objs.get(e.watch[i].user)
	}
	return nil
}

// Access implements proc.AccessChecker: in validation mode it classifies
// every program access against patched objects and records the illegal
// ones (the Pin instrumentation of §5). An access is checked against the
// first interesting object it overlaps, so one that starts in front of an
// object, or covers it whole, counts as well as one that starts inside.
// instr is called only to record an access. Outside validation mode Access
// is a no-op so normal execution stays cheap.
func (e *Ext) Access(addr vmem.Addr, n int, write bool, instr func() string) {
	if e.mode != ModeValidation || e.trace == nil || n <= 0 {
		return
	}
	end := addr + vmem.Addr(n)
	obj := e.watchAt(addr, end)
	if obj == nil {
		return
	}
	if obj.Delayed {
		kind := FreedRead
		if write {
			kind = FreedWrite
		}
		e.trace.Illegal = append(e.trace.Illegal, IllegalAccess{
			Kind:      kind,
			PatchSite: obj.FreeSite,
			Instr:     instr(),
			Obj:       obj.User,
			Offset:    int(addr) - int(obj.User),
			Len:       n,
		})
		return
	}
	if obj.PadFront > 0 || obj.PadBack > 0 {
		e.checkPadHit(obj, addr, end, write, instr)
	}
	if obj.written != nil {
		e.trackInit(obj, addr, end, write, instr)
	}
}

// checkPadHit records an access overlapping the object's padding.
func (e *Ext) checkPadHit(obj *Object, addr, end vmem.Addr, write bool, instr func() string) {
	padFrontStart := obj.Base + HeaderLen
	userEnd := obj.User + obj.UserSize
	padBackEnd := userEnd + obj.PadBack
	overlapsFront := obj.PadFront > 0 && addr < obj.User && end > padFrontStart
	overlapsBack := obj.PadBack > 0 && end > userEnd && addr < padBackEnd
	if !overlapsFront && !overlapsBack {
		return
	}
	kind := PadRead
	if write {
		kind = PadWrite
	}
	off := int(addr) - int(obj.User)
	e.trace.Illegal = append(e.trace.Illegal, IllegalAccess{
		Kind:      kind,
		PatchSite: obj.AllocSite,
		Instr:     instr(),
		Obj:       obj.User,
		Offset:    off,
		Len:       int(end - addr),
	})
}

// trackInit maintains the per-byte init bitmap of zero-filled objects and
// records reads of never-written bytes.
func (e *Ext) trackInit(obj *Object, addr, end vmem.Addr, write bool, instr func() string) {
	lo := int(addr) - int(obj.User)
	hi := int(end) - int(obj.User)
	if lo < 0 {
		lo = 0
	}
	if hi > int(obj.UserSize) {
		hi = int(obj.UserSize)
	}
	if lo >= hi {
		return
	}
	if write {
		obj = e.s.objs.mut(obj.User)
		for i := lo; i < hi; i++ {
			obj.written[i/64] |= 1 << (uint(i) % 64)
		}
		return
	}
	uninit := false
	for i := lo; i < hi; i++ {
		if obj.written[i/64]&(1<<(uint(i)%64)) == 0 {
			uninit = true
			break
		}
	}
	if uninit {
		e.trace.Illegal = append(e.trace.Illegal, IllegalAccess{
			Kind:      UninitRead,
			PatchSite: obj.AllocSite,
			Instr:     instr(),
			Obj:       obj.User,
			Offset:    lo,
			Len:       hi - lo,
		})
	}
}
