// Package patch implements First-Aid's runtime patches and the per-program
// patch pool (paper §2 "Patch generation and application", §3 "Patch
// management").
//
// A runtime patch is a pair of a preventive environmental change (derived
// from the diagnosed bug class) and a patch application point (the 3-level
// allocation or deallocation call-site of the bug-triggering objects). The
// pool stores patches persistently, keyed by call-site signature, so they
// protect the current process, subsequent runs of the same program, and
// other processes running the same executable.
package patch

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"firstaid/internal/allocext"
	"firstaid/internal/callsite"
	"firstaid/internal/mmbug"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

// Patch is one runtime patch.
type Patch struct {
	ID        int          `json:"id"`
	Bug       mmbug.Type   `json:"bug"`
	Site      callsite.Key `json:"site"`    // application point signature
	AtAlloc   bool         `json:"atAlloc"` // allocation vs deallocation point
	Validated bool         `json:"validated"`
	Revoked   bool         `json:"revoked"`
	Origin    string       `json:"origin,omitempty"` // free-form provenance for the report
}

// ChangeName returns the paper's name for the patch's preventive change.
func (p *Patch) ChangeName() string { return p.Bug.PatchName() }

func (p *Patch) String() string {
	state := ""
	if p.Revoked {
		state = " [revoked]"
	} else if p.Validated {
		state = " [validated]"
	}
	return fmt.Sprintf("patch %d: %s on callsite %s for %v%s", p.ID, p.ChangeName(), p.Site, p.Bug, state)
}

// AllocAction returns the allocation-time preventive action of the patch.
func (p *Patch) AllocAction() (allocext.AllocAction, bool) {
	if !p.AtAlloc || p.Revoked {
		return allocext.AllocAction{}, false
	}
	return allocext.PreventiveAlloc(p.Bug)
}

// FreeAction returns the deallocation-time preventive action of the patch.
func (p *Patch) FreeAction() (allocext.FreeAction, bool) {
	if p.AtAlloc || p.Revoked {
		return allocext.FreeAction{}, false
	}
	return allocext.PreventiveFree(p.Bug)
}

// New creates a patch for the diagnosed bug class at the given application
// point. The application-point side (allocation vs deallocation) follows
// Table 1.
func New(bug mmbug.Type, site callsite.Key) *Patch {
	return &Patch{Bug: bug, Site: site, AtAlloc: bug.AtAllocation()}
}

// Pool is the per-program patch store — the paper's "central patch pool",
// shared by every process running the same program. All methods are safe
// for concurrent use: one process may be diagnosing and adding a patch
// while another process (or a parallel validation goroutine) queries or
// revokes.
type Pool struct {
	Program string

	mu      sync.Mutex
	patches []*Patch
	nextID  int

	// gen counts pool mutations (adds, revives, revocations, validation
	// flags). Bindings poll it on every allocation to decide whether their
	// resolution maps are stale, so it must be readable without taking the
	// pool lock: with a fleet of workers sharing one pool, a locked read
	// per malloc would serialize every machine on this mutex.
	gen atomic.Uint64

	// trc records pool mutations in the execution trace. Written only
	// under mu (SetTracer takes the lock), so mutating methods may read it
	// while holding mu without a data race.
	trc trace.Emitter
}

// SetTracer wires the pool to an execution-trace emitter (the zero
// Emitter detaches). Adds, revocations and validation flags become trace
// records carrying the patch ID and the post-mutation pool generation.
func (pl *Pool) SetTracer(em trace.Emitter) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.trc = em
}

// NewPool creates an empty pool for the named program.
func NewPool(program string) *Pool { return &Pool{Program: program, nextID: 1} }

// Add inserts a patch, assigning its ID. Duplicate (bug, site) pairs are
// coalesced: re-adding revives a revoked patch rather than stacking
// duplicates.
func (pl *Pool) Add(p *Patch) *Patch {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, old := range pl.patches {
		if old.Bug == p.Bug && old.Site == p.Site {
			old.Revoked = false
			if old.Origin == "" {
				old.Origin = p.Origin
			}
			pl.trc.Emit(trace.KPatchAdd, uint64(old.ID), pl.gen.Add(1))
			return old
		}
	}
	p.ID = pl.nextID
	pl.nextID++
	pl.patches = append(pl.patches, p)
	pl.trc.Emit(trace.KPatchAdd, uint64(p.ID), pl.gen.Add(1))
	return p
}

// Revoke marks the patch with the given ID revoked (validation failure).
func (pl *Pool) Revoke(id int) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, p := range pl.patches {
		if p.ID == id {
			p.Revoked = true
			pl.trc.Emit(trace.KPatchRevoke, uint64(id), pl.gen.Add(1))
			return true
		}
	}
	return false
}

// MarkValidated flags the patch as having passed validation.
func (pl *Pool) MarkValidated(id int) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, p := range pl.patches {
		if p.ID == id {
			p.Validated = true
			pl.trc.Emit(trace.KPatchValidate, uint64(id), pl.gen.Add(1))
			return true
		}
	}
	return false
}

// Active returns the non-revoked patches, ID-ordered.
func (pl *Pool) Active() []*Patch {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var out []*Patch
	for _, p := range pl.patches {
		if !p.Revoked {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// All returns every patch including revoked ones, ID-ordered.
func (pl *Pool) All() []*Patch {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := append([]*Patch(nil), pl.patches...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of patches (including revoked).
func (pl *Pool) Len() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.patches)
}

// Get returns a value copy of the patch with the given ID — a race-free
// read for report generation while other processes may be mutating flags.
func (pl *Pool) Get(id int) (Patch, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, p := range pl.patches {
		if p.ID == id {
			return *p, true
		}
	}
	return Patch{}, false
}

// ActiveSnapshot returns value copies of the non-revoked patches,
// ID-ordered — a race-free view for binding resolution.
func (pl *Pool) ActiveSnapshot() []Patch {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var out []Patch
	for _, p := range pl.patches {
		if !p.Revoked {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Generation returns a counter that changes whenever the pool's content
// may have changed; Bound polls it on every allocation to refresh its
// resolution maps. It is a single atomic load — no lock — because in a
// fleet every worker's allocator fast path reads it concurrently.
func (pl *Pool) Generation() uint64 { return pl.gen.Load() }

// Clone returns a deep copy of the pool — a frozen view for a forked
// machine (parallel validation reads patch actions while the live pool may
// gain or lose patches).
func (pl *Pool) Clone() *Pool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	cp := &Pool{Program: pl.Program, nextID: pl.nextID}
	for _, p := range pl.patches {
		q := *p
		cp.patches = append(cp.patches, &q)
	}
	return cp
}

// --- persistence ---------------------------------------------------------------

type poolFile struct {
	Program string   `json:"program"`
	NextID  int      `json:"nextId"`
	Patches []*Patch `json:"patches"`
}

// Save writes the pool as JSON.
func (pl *Pool) Save(w io.Writer) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(poolFile{Program: pl.Program, NextID: pl.nextID, Patches: pl.patches})
}

// Load reads a pool written by Save.
func Load(r io.Reader) (*Pool, error) {
	var pf poolFile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("patch: decoding pool: %w", err)
	}
	pl := &Pool{Program: pf.Program, nextID: pf.NextID, patches: pf.Patches}
	if pl.nextID < 1 {
		pl.nextID = 1
	}
	return pl, nil
}

// SaveFile writes the pool to path crash-safely: it writes and syncs a
// temporary file in path's directory, then renames it over path. A reader,
// or the next start after a crash or a failed write, sees the old pool or
// the new one, never a torn file.
func (pl *Pool) SaveFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		err = pl.Save(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// LoadFile reads a pool from path.
func LoadFile(path string) (*Pool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// --- binding to a process -------------------------------------------------------

// Bound adapts a Pool to one process's call-site table, implementing
// allocext.PatchSource. In normal mode the allocator extension queries it
// on every allocation and deallocation; resolution maps are rebuilt when
// the pool changes.
type Bound struct {
	pool  *Pool
	table *callsite.Table

	gen     uint64 // pool generation observed at last rebuild
	byAlloc map[callsite.ID]*Patch
	byFree  map[callsite.ID]*Patch
	dirty   bool

	// Pre-resolved instruments; nil (the default) discards updates.
	allocHits *telemetry.Counter
	freeHits  *telemetry.Counter
}

// SetMetrics wires the binding to a telemetry registry (nil detaches):
// every allocation or deallocation that resolves to an active patch counts
// as a pool hit.
func (b *Bound) SetMetrics(reg *telemetry.Registry) {
	b.allocHits = reg.Counter("patch.alloc_hits")
	b.freeHits = reg.Counter("patch.free_hits")
}

// Bind attaches the pool to a call-site table.
func (pl *Pool) Bind(table *callsite.Table) *Bound {
	return &Bound{pool: pl, table: table, dirty: true}
}

// Invalidate forces re-resolution (after Add/Revoke).
func (b *Bound) Invalidate() { b.dirty = true }

func (b *Bound) resolve() {
	// Read the generation BEFORE snapshotting: a mutation that lands while
	// the maps are being rebuilt then leaves b.gen behind the pool's, and
	// the next resolution rebuilds again instead of serving a stale view.
	gen := b.pool.Generation()
	if !b.dirty && b.gen == gen {
		return
	}
	b.byAlloc = make(map[callsite.ID]*Patch)
	b.byFree = make(map[callsite.ID]*Patch)
	for _, snap := range b.pool.ActiveSnapshot() {
		p := snap // value copy: immune to concurrent pool mutation
		id := b.table.Intern(p.Site)
		if p.AtAlloc {
			b.byAlloc[id] = &p
		} else {
			b.byFree[id] = &p
		}
	}
	b.gen = gen
	b.dirty = false
}

// AllocPatch implements allocext.PatchSource.
func (b *Bound) AllocPatch(site callsite.ID) (allocext.AllocAction, bool) {
	b.resolve()
	if p, ok := b.byAlloc[site]; ok {
		if act, ok := p.AllocAction(); ok {
			b.allocHits.Inc()
			return act, true
		}
	}
	return allocext.AllocAction{}, false
}

// FreePatch implements allocext.PatchSource.
func (b *Bound) FreePatch(site callsite.ID) (allocext.FreeAction, bool) {
	b.resolve()
	if p, ok := b.byFree[site]; ok {
		if act, ok := p.FreeAction(); ok {
			b.freeHits.Inc()
			return act, true
		}
	}
	return allocext.FreeAction{}, false
}

// PatchAt returns the active patch bound to the given interned site, on
// either side.
func (b *Bound) PatchAt(site callsite.ID) (*Patch, bool) {
	b.resolve()
	if p, ok := b.byAlloc[site]; ok {
		return p, true
	}
	p, ok := b.byFree[site]
	return p, ok
}

// Sites returns the interned application points of all active patches.
func (b *Bound) Sites() []callsite.ID {
	b.resolve()
	var out []callsite.ID
	for id := range b.byAlloc {
		out = append(out, id)
	}
	for id := range b.byFree {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
