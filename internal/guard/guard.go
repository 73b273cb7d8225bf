// Package guard implements sampled guard-page detection (the GWP-ASan
// direction on the roadmap): a configurable 1/N of allocation requests is
// redirected from the raw allocator to a dedicated vmem mapping whose
// neighboring pages are unmapped, so a buffer overflow or underflow on a
// sampled object traps at the faulting instruction instead of corrupting a
// neighbor silently. Freed sampled objects enter a bounded quarantine whose
// pages stay unmapped — a dangling access through a stale pointer traps the
// same way. The trap carries the sampled allocation's exact call-site, which
// lets diagnosis skip its phase-1 checkpoint search entirely.
//
// Design rules:
//
//   - Determinism. The 1/N coin is a countdown drawn from the machine's
//     seeded xorshift stream, and every sampling decision input (countdown,
//     per-site records, orientation sequence, live slots, quarantine ring)
//     lives in the checkpointed state: a diagnostic re-execution or a
//     validation clone replays the exact same guard layout, so recoveries
//     are byte-identical across sync/parallel/streaming supervision.
//   - Zero off-cost. A machine without sampling never constructs a Guard;
//     the allocator extension's hot path stays a nil check, the same
//     discipline as telemetry and trace.
//   - vmem does the heavy lifting. Space.Map rounds to pages, leaves one
//     unmapped page after every region, and never reuses addresses, so a
//     quarantined region's pages stay unmapped forever — even after its
//     ring metadata is evicted, a dangling access still traps (it merely
//     loses its site attribution and falls back to full diagnosis).
package guard

import (
	"firstaid/internal/callsite"
	"firstaid/internal/mmbug"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
	"firstaid/internal/vmem"
)

// DefaultRate is the default sampling rate: one sampled allocation per
// ~4096 requests, GWP-ASan's production order of magnitude — cheap enough
// to leave on fleet-wide.
const DefaultRate = 4096

// DefaultMaxSize caps the size of sampled objects: a guarded slot costs
// whole pages, so huge requests (which the heap mmaps with its own trailing
// guard page anyway) stay on the raw path.
const DefaultMaxSize = 64 << 10

// DefaultQuarantine is the quarantine ring capacity in freed slots. The
// pages themselves stay unmapped beyond eviction; the ring only bounds how
// long the free-site attribution metadata is retained.
const DefaultQuarantine = 64

// decayAfter is the adaptive policy's cooldown: once a call-site has been
// coin-sampled this many times without a single guard hit, further coin
// selections of it are skipped (forced and boosted sites never decay).
const decayAfter = 64

// Config tunes a Guard.
type Config struct {
	// Rate is the sampling rate N: on average one of every N allocation
	// requests is guarded. 0 disables coin sampling (forced sites are
	// still guarded).
	Rate int
	// Force lists call-site substrings that are always sampled,
	// matched against the "/"-joined 3-level site key. The diagnosis
	// accuracy matrix uses this to pin a rate of 1/1 on injected sites.
	Force []string
	// MaxSize caps sampled object sizes (default DefaultMaxSize).
	MaxSize uint32
	// Quarantine is the quarantine ring capacity (default
	// DefaultQuarantine).
	Quarantine int
}

// Slot is one live guarded allocation.
type Slot struct {
	Start vmem.Addr // mapped region start (page aligned)
	Len   uint32    // mapped region length (page multiple)
	User  vmem.Addr // user pointer handed to the program
	Size  uint32    // requested size
	Left  bool      // left-guard orientation (object at region start)
	Site  callsite.ID
	Clock uint64 // process clock at allocation
}

// quarEntry is one freed guarded allocation whose pages remain unmapped.
type quarEntry struct {
	Start     vmem.Addr
	Len       uint32
	User      vmem.Addr
	Size      uint32
	AllocSite callsite.ID
	FreeSite  callsite.ID
	FreeClock uint64
}

// siteRec is the adaptive policy's per-call-site record.
type siteRec struct {
	Sampled uint64 // times this site was coin-sampled
	Hits    uint64 // guard hits attributed to this site
}

// state is everything a sampling decision depends on. It is captured and
// restored with the machine checkpoints so re-execution replays the same
// decisions.
type state struct {
	next   int64 // checkpointed countdown (working copy lives on Guard.next)
	seq    uint64
	slots  map[vmem.Addr]*Slot
	quar   []quarEntry
	sites  map[callsite.ID]*siteRec
	boosts map[callsite.ID]bool
}

func (st *state) clone() *state {
	cp := &state{
		next:  st.next,
		seq:   st.seq,
		slots: make(map[vmem.Addr]*Slot, len(st.slots)),
		sites: make(map[callsite.ID]*siteRec, len(st.sites)),
	}
	for k, v := range st.slots {
		s := *v
		cp.slots[k] = &s
	}
	if len(st.quar) > 0 {
		cp.quar = append([]quarEntry(nil), st.quar...)
	}
	for k, v := range st.sites {
		r := *v
		cp.sites[k] = &r
	}
	if len(st.boosts) > 0 {
		cp.boosts = make(map[callsite.ID]bool, len(st.boosts))
		for k := range st.boosts {
			cp.boosts[k] = true
		}
	}
	return cp
}

// Hit attributes a trapped access to a guarded object.
type Hit struct {
	// Bug is the manifested class: BufferOverflow for an access beyond a
	// live slot's bounds (either direction — the preventive change for
	// underflow is the same front padding), DanglingWrite/DanglingRead
	// for an access into a quarantined slot.
	Bug mmbug.Type
	// Site is the patch application point: the allocation site for
	// overflow, the free site for dangling accesses.
	Site callsite.ID
	// Clock is the process clock of the decisive operation (allocation
	// for overflow, free for dangling) — the diagnosis fast path picks
	// the newest checkpoint strictly older than this.
	Clock uint64
}

// Guard is the sampling tier of one machine. It is not safe for concurrent
// use; like the allocator extension it belongs to exactly one machine, and
// validation clones receive their own Guard via State/SetState.
type Guard struct {
	mem *vmem.Space
	cfg Config

	// rand and clock tap the owning process's seeded PRNG stream and
	// cycle clock (Bind); until bound, sampling is inert.
	rand  func() uint64
	clock func() uint64

	// siteKey renders a call-site for Force matching; forceMemo caches
	// the pure match result per interned ID (lifetime-only: the memo is
	// a function of the site table, not of execution state).
	siteKey   func(callsite.ID) string
	forceMemo map[callsite.ID]bool

	st *state

	// fast is true when Decide can run its inlined two-instruction path:
	// coin sampling only (bound PRNG, positive rate, no forced patterns, no
	// boosted sites) with a warm countdown. Recomputed by refast whenever an
	// input changes (Bind, Boost, SetState). next is the working copy of the
	// coin countdown (0 = not yet drawn): it lives directly on the Guard —
	// one cache line with fast, no st pointer chase — and is synced with the
	// checkpointed state in State/SetState.
	fast bool
	next int64

	// Pre-resolved telemetry instruments (nil discards) and tracer.
	cSampled *telemetry.Counter
	cHits    *telemetry.Counter
	cQuar    *telemetry.Counter
	cDecayed *telemetry.Counter
	cBoosts  *telemetry.Counter
	trc      trace.Emitter
}

// New creates a Guard over the machine's address space.
func New(mem *vmem.Space, cfg Config) *Guard {
	if cfg.MaxSize == 0 {
		cfg.MaxSize = DefaultMaxSize
	}
	if cfg.Quarantine <= 0 {
		cfg.Quarantine = DefaultQuarantine
	}
	return &Guard{
		mem: mem,
		cfg: cfg,
		st: &state{
			slots: map[vmem.Addr]*Slot{},
			sites: map[callsite.ID]*siteRec{},
		},
	}
}

// Bind connects the guard to the owning process's PRNG stream, cycle clock
// and call-site renderer.
func (g *Guard) Bind(rand func() uint64, clock func() uint64, siteKey func(callsite.ID) string) {
	g.rand = rand
	g.clock = clock
	g.siteKey = siteKey
	g.refast()
}

// refast recomputes the Decide fast-path eligibility flag.
func (g *Guard) refast() {
	g.fast = g.rand != nil && g.cfg.Rate > 0 &&
		len(g.cfg.Force) == 0 && len(g.st.boosts) == 0
}

// SetMetrics wires the guard to a telemetry registry (nil detaches).
func (g *Guard) SetMetrics(reg *telemetry.Registry) {
	g.cSampled = reg.Counter("guard.sampled")
	g.cHits = reg.Counter("guard.hits")
	g.cQuar = reg.Counter("guard.quarantined")
	g.cDecayed = reg.Counter("guard.decayed")
	g.cBoosts = reg.Counter("guard.boosts")
}

// SetTracer wires the guard to an execution-trace emitter (the zero
// Emitter detaches). Guard records land on their own per-worker track —
// core wires a GuardTrack emitter here.
func (g *Guard) SetTracer(em trace.Emitter) { g.trc = em }

// State returns a deep copy of the sampling-decision state for
// checkpointing.
func (g *Guard) State() interface{} {
	cp := g.st.clone()
	cp.next = g.next
	return cp
}

// SetState reinstates checkpointed state.
func (g *Guard) SetState(v interface{}) {
	g.st = v.(*state).clone()
	g.next = g.st.next
	g.refast()
}

// CopyStateFrom gives g a deep copy of src's sampling-decision state —
// SetState(src.State()) with one copy instead of two.
func (g *Guard) CopyStateFrom(src *Guard) {
	g.st = src.st.clone()
	g.st.next = src.next
	g.next = src.next
	g.refast()
}

func (g *Guard) forced(site callsite.ID) bool {
	if len(g.cfg.Force) == 0 || g.siteKey == nil {
		return false
	}
	if hit, ok := g.forceMemo[site]; ok {
		return hit
	}
	key := g.siteKey(site)
	hit := false
	for _, pat := range g.cfg.Force {
		if pat != "" && contains(key, pat) {
			hit = true
			break
		}
	}
	if g.forceMemo == nil {
		g.forceMemo = map[callsite.ID]bool{}
	}
	g.forceMemo[site] = hit
	return hit
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// redraw picks the next countdown uniformly in [1, 2N], for a geometric-ish
// inter-sample gap with mean ~N.
func (g *Guard) redraw() int64 {
	n := int64(g.cfg.Rate)
	if n <= 0 {
		return 1 << 62
	}
	return 1 + int64(g.rand()%uint64(2*n))
}

// Decide reports whether this allocation request should be guarded. It is
// the sampling hot path, inlined into the allocator extension: in the
// common configuration (coin sampling only, warm countdown) the cost is a
// flag check and a countdown decrement. Everything else — forced patterns,
// boosted sites, countdown expiry, the lazy first draw — takes the slow
// path. (In fast mode an oversized request still ticks the countdown; the
// request itself is never guarded either way, and the decision stream
// stays a pure function of the request stream.)
func (g *Guard) Decide(n uint32, site callsite.ID) bool {
	if g.fast && g.next > 1 {
		g.next--
		return false
	}
	return g.decideSlow(n, site)
}

func (g *Guard) decideSlow(n uint32, site callsite.ID) bool {
	if g.rand == nil || n > g.cfg.MaxSize {
		return false
	}
	if g.forced(site) {
		return true
	}
	if len(g.st.boosts) > 0 && g.st.boosts[site] {
		return true
	}
	if g.cfg.Rate <= 0 {
		return false
	}
	if g.next == 0 {
		g.next = g.redraw()
	}
	g.next--
	if g.next > 0 {
		return false
	}
	g.next = g.redraw()
	// Adaptive decay: a hot site that has been sampled many times and
	// never produced a hit stops consuming guarded slots.
	if rec := g.st.sites[site]; rec != nil && rec.Hits == 0 && rec.Sampled >= decayAfter {
		g.cDecayed.Inc()
		return false
	}
	return true
}

// Alloc maps a fresh guarded slot for an n-byte object with the given
// padding and returns it. Orientation alternates: forced sites always take
// the right guard (overflow is by far the dominant class for them — the
// matrix pins exact-site detection on it), coin samples take the left
// guard every 4th time so underflow is covered too.
//
// Right guard: the object ends at the last 8-aligned offset before the
// back padding, so the region's trailing unmapped page is at most 7 bytes
// past the object's end (the alignment slack GWP-ASan also accepts).
// Left guard: the object starts at the region start; the unmapped page
// *before* the region (Space.Map leaves a gap page between regions and
// never reuses addresses) catches underflow.
func (g *Guard) Alloc(n, padF, padB uint32, site callsite.ID) (Slot, error) {
	want := padF + n + padB
	if want == 0 {
		want = 1
	}
	start, err := g.mem.Map(want)
	if err != nil {
		return Slot{}, err
	}
	length := (want + vmem.PageSize - 1) &^ (vmem.PageSize - 1)
	right := g.forced(site) || g.st.seq%4 != 3
	g.st.seq++
	var user vmem.Addr
	if right {
		user = (start + vmem.Addr(length) - vmem.Addr(padB) - vmem.Addr(n)) &^ 7
	} else {
		user = start + vmem.Addr(padF)
	}
	sl := &Slot{
		Start: start,
		Len:   length,
		User:  user,
		Size:  n,
		Left:  !right,
		Site:  site,
		Clock: g.clock(),
	}
	g.st.slots[user] = sl
	rec := g.st.sites[site]
	if rec == nil {
		rec = &siteRec{}
		g.st.sites[site] = rec
	}
	rec.Sampled++
	g.cSampled.Inc()
	g.trc.Emit(trace.KGuardAlloc, uint64(site), uint64(n))
	return *sl, nil
}

// Lookup returns the live slot owning the given user pointer.
func (g *Guard) Lookup(user vmem.Addr) (Slot, bool) {
	sl, ok := g.st.slots[user]
	if !ok {
		return Slot{}, false
	}
	return *sl, true
}

// Release unmaps a live slot's pages and quarantines its metadata, so a
// dangling access through the stale pointer traps with the free site
// attached. Returns false when the pointer is not a live guarded object.
func (g *Guard) Release(user vmem.Addr, freeSite callsite.ID) bool {
	sl, ok := g.st.slots[user]
	if !ok {
		return false
	}
	delete(g.st.slots, user)
	if err := g.mem.Unmap(sl.Start); err != nil {
		// Cannot happen: Start came from Map and addresses are never
		// reused. Keep the slot dropped regardless.
		return true
	}
	g.st.quar = append(g.st.quar, quarEntry{
		Start:     sl.Start,
		Len:       sl.Len,
		User:      sl.User,
		Size:      sl.Size,
		AllocSite: sl.Site,
		FreeSite:  freeSite,
		FreeClock: g.clock(),
	})
	if n := len(g.st.quar) - g.cfg.Quarantine; n > 0 {
		// Evict oldest metadata; the pages stay unmapped forever.
		g.st.quar = append(g.st.quar[:0], g.st.quar[n:]...)
	}
	g.cQuar.Inc()
	g.trc.Emit(trace.KGuardFree, uint64(freeSite), uint64(sl.Size))
	return true
}

// Quarantined reports whether the pointer is a quarantined guarded object
// (its backing pages are unmapped; touching them traps).
func (g *Guard) Quarantined(user vmem.Addr) bool {
	_, ok := g.QuarFreeSite(user)
	return ok
}

// QuarFreeSite returns the recorded free site of a quarantined guarded
// object. The quarantine is the system of record for sampled frees — their
// addresses never recycle, so the allocator extension keeps them out of its
// freed ring and consults this instead for re-free attribution.
func (g *Guard) QuarFreeSite(user vmem.Addr) (callsite.ID, bool) {
	for i := range g.st.quar {
		if g.st.quar[i].User == user {
			return g.st.quar[i].FreeSite, true
		}
	}
	return 0, false
}

// Hit classifies a trapped access against the guarded slots. The scan is a
// full pass with a deterministic total order (smallest distance to the
// object, live slots over quarantined, lowest region start) so the result
// never depends on map iteration order — cross-mode replays must agree.
//
// A live slot claims faults within one page of its region (the unmapped
// neighbor pages): BufferOverflow, attributed to the allocation site. A
// quarantined slot claims faults inside its exact (unmapped) region:
// DanglingWrite/DanglingRead, attributed to the free site. Anything else —
// e.g. an overflow off a raw mmap spill — is not a guard hit and keeps the
// ordinary full-diagnosis path.
func (g *Guard) Hit(addr vmem.Addr, n int, write bool) (Hit, bool) {
	if n < 1 {
		n = 1
	}
	lo, hi := uint64(addr), uint64(addr)+uint64(n) // [lo, hi)
	const none = ^uint64(0)
	best := Hit{}
	bestDist := none
	bestLive := false
	bestStart := vmem.Addr(0)
	consider := func(h Hit, dist uint64, live bool, start vmem.Addr) {
		if dist < bestDist ||
			(dist == bestDist && live && !bestLive) ||
			(dist == bestDist && live == bestLive && (bestDist == none || start < bestStart)) {
			best, bestDist, bestLive, bestStart = h, dist, live, start
		}
	}
	distTo := func(user vmem.Addr, size uint32) uint64 {
		oLo, oHi := uint64(user), uint64(user)+uint64(size)
		if hi <= oLo {
			return oLo - hi + 1
		}
		if lo >= oHi {
			return lo - oHi + 1
		}
		return 0
	}
	for _, sl := range g.st.slots {
		rLo := uint64(sl.Start) - vmem.PageSize
		rHi := uint64(sl.Start) + uint64(sl.Len) + vmem.PageSize
		if hi <= rLo || lo >= rHi {
			continue
		}
		consider(Hit{Bug: mmbug.BufferOverflow, Site: sl.Site, Clock: sl.Clock},
			distTo(sl.User, sl.Size), true, sl.Start)
	}
	for i := range g.st.quar {
		q := &g.st.quar[i]
		rLo := uint64(q.Start)
		rHi := uint64(q.Start) + uint64(q.Len)
		if hi <= rLo || lo >= rHi {
			continue
		}
		bug := mmbug.DanglingRead
		if write {
			bug = mmbug.DanglingWrite
		}
		consider(Hit{Bug: bug, Site: q.FreeSite, Clock: q.FreeClock},
			distTo(q.User, q.Size), false, q.Start)
	}
	if bestDist == none {
		return Hit{}, false
	}
	g.cHits.Inc()
	g.trc.Emit(trace.KGuardHit, uint64(best.Bug), uint64(addr))
	return best, true
}

// Boost marks a call-site as always-sample (a guard hit or a completed
// diagnosis implicates it) and records the hit for the decay policy.
func (g *Guard) Boost(site callsite.ID) {
	if site == 0 {
		return
	}
	if g.st.boosts == nil {
		g.st.boosts = map[callsite.ID]bool{}
	}
	if !g.st.boosts[site] {
		g.st.boosts[site] = true
		g.fast = false // boosted sites must reach the slow path's site check
		g.cBoosts.Inc()
	}
	rec := g.st.sites[site]
	if rec == nil {
		rec = &siteRec{}
		g.st.sites[site] = rec
	}
	rec.Hits++
}

// Boosted reports whether the site is in the always-sample set.
func (g *Guard) Boosted(site callsite.ID) bool { return g.st.boosts[site] }

// Live returns the number of live guarded slots.
func (g *Guard) Live() int { return len(g.st.slots) }

// QuarantineLen returns the number of quarantined entries retained.
func (g *Guard) QuarantineLen() int { return len(g.st.quar) }
