package patch

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"firstaid/internal/callsite"
	"firstaid/internal/mmbug"
)

var (
	siteA = callsite.Key{"xmalloc", "parse_request", "handle"}
	siteB = callsite.Key{"xfree", "cleanup", "handle"}
)

func TestNewPatchSides(t *testing.T) {
	p := New(mmbug.BufferOverflow, siteA)
	if !p.AtAlloc {
		t.Fatal("overflow patch must apply at allocation")
	}
	if a, ok := p.AllocAction(); !ok || !a.Pad {
		t.Fatalf("alloc action = %+v, %v", a, ok)
	}
	if _, ok := p.FreeAction(); ok {
		t.Fatal("overflow patch has no free action")
	}

	q := New(mmbug.DanglingRead, siteB)
	if q.AtAlloc {
		t.Fatal("dangling-read patch must apply at deallocation")
	}
	if a, ok := q.FreeAction(); !ok || !a.Delay {
		t.Fatalf("free action = %+v, %v", a, ok)
	}

	z := New(mmbug.UninitRead, siteA)
	if a, ok := z.AllocAction(); !ok || !a.Zero {
		t.Fatalf("uninit action = %+v, %v", a, ok)
	}
}

func TestRevokedPatchHasNoActions(t *testing.T) {
	p := New(mmbug.BufferOverflow, siteA)
	p.Revoked = true
	if _, ok := p.AllocAction(); ok {
		t.Fatal("revoked patch still acts")
	}
}

func TestPoolAddAssignsIDsAndCoalesces(t *testing.T) {
	pl := NewPool("squid")
	p1 := pl.Add(New(mmbug.BufferOverflow, siteA))
	p2 := pl.Add(New(mmbug.DanglingRead, siteB))
	if p1.ID == 0 || p1.ID == p2.ID {
		t.Fatalf("ids: %d %d", p1.ID, p2.ID)
	}
	// Re-adding the same (bug, site) coalesces.
	p3 := pl.Add(New(mmbug.BufferOverflow, siteA))
	if p3 != p1 || pl.Len() != 2 {
		t.Fatal("duplicate not coalesced")
	}
	// Re-adding revives a revoked patch.
	pl.Revoke(p1.ID)
	if len(pl.Active()) != 1 {
		t.Fatal("revoke failed")
	}
	pl.Add(New(mmbug.BufferOverflow, siteA))
	if len(pl.Active()) != 2 {
		t.Fatal("revive failed")
	}
}

func TestRevokeAndValidateUnknownIDs(t *testing.T) {
	pl := NewPool("x")
	if pl.Revoke(99) || pl.MarkValidated(99) {
		t.Fatal("unknown id accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	pl := NewPool("apache")
	p1 := pl.Add(New(mmbug.DanglingRead, siteB))
	pl.MarkValidated(p1.ID)
	p2 := pl.Add(New(mmbug.BufferOverflow, siteA))
	pl.Revoke(p2.ID)

	var buf bytes.Buffer
	if err := pl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "apache" || got.Len() != 2 {
		t.Fatalf("loaded: %q len %d", got.Program, got.Len())
	}
	active := got.Active()
	if len(active) != 1 || active[0].Bug != mmbug.DanglingRead || !active[0].Validated {
		t.Fatalf("active after load: %+v", active)
	}
	// IDs continue from where they left off.
	p3 := got.Add(New(mmbug.DoubleFree, callsite.Key{"f", "g", "h"}))
	if p3.ID != 3 {
		t.Fatalf("next id = %d", p3.ID)
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.json")
	pl := NewPool("cvs")
	pl.Add(New(mmbug.DoubleFree, siteB))
	if err := pl.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Active()[0].Bug != mmbug.DoubleFree {
		t.Fatal("file round trip lost data")
	}
}

// TestSaveFileReplacesWholeFile: saving over an existing pool file swaps
// in a complete new file instead of rewriting the old one in place, so a
// reader holding the old file still reads the complete old pool and no
// temporary file is left behind.
func TestSaveFileReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.json")
	old := NewPool("cvs")
	old.Add(New(mmbug.DoubleFree, siteB))
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	held, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	newer := NewPool("cvs")
	newer.Add(New(mmbug.BufferOverflow, siteA))
	newer.Add(New(mmbug.DanglingRead, siteB))
	if err := newer.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(held)
	if err != nil {
		t.Fatalf("old descriptor: %v", err)
	}
	if got.Len() != 1 || got.Active()[0].Bug != mmbug.DoubleFree {
		t.Fatalf("old descriptor reads %d patch(es), want the old pool's one double-free patch", got.Len())
	}
	if cur, err := LoadFile(path); err != nil || cur.Len() != 2 {
		t.Fatalf("path holds %v (err %v), want the new pool", cur, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after saving, want only the pool file", len(entries))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBoundResolution(t *testing.T) {
	pl := NewPool("squid")
	pl.Add(New(mmbug.BufferOverflow, siteA))
	tab := callsite.NewTable()
	b := pl.Bind(tab)

	idA := tab.Intern(siteA)
	if a, ok := b.AllocPatch(idA); !ok || !a.Pad {
		t.Fatalf("AllocPatch = %+v, %v", a, ok)
	}
	other := tab.Intern(callsite.Key{"other", "", ""})
	if _, ok := b.AllocPatch(other); ok {
		t.Fatal("unpatched site matched")
	}
	if _, ok := b.FreePatch(idA); ok {
		t.Fatal("alloc patch matched on free side")
	}

	// Pool growth is picked up without explicit invalidation.
	pl.Add(New(mmbug.DanglingRead, siteB))
	idB := tab.Intern(siteB)
	if a, ok := b.FreePatch(idB); !ok || !a.Delay {
		t.Fatalf("new patch not resolved: %+v %v", a, ok)
	}

	// Revocation requires Invalidate (length unchanged).
	pl.Revoke(1)
	b.Invalidate()
	if _, ok := b.AllocPatch(idA); ok {
		t.Fatal("revoked patch still resolves")
	}

	if p, ok := b.PatchAt(idB); !ok || p.Bug != mmbug.DanglingRead {
		t.Fatalf("PatchAt = %+v, %v", p, ok)
	}
	sites := b.Sites()
	if len(sites) != 1 || sites[0] != idB {
		t.Fatalf("Sites = %v", sites)
	}
}

func TestBoundInternsUnseenSites(t *testing.T) {
	// A pool loaded from disk may reference call-sites the new process
	// has not hit yet; binding must intern them so the first hit matches.
	pl := NewPool("squid")
	pl.Add(New(mmbug.BufferOverflow, siteA))
	tab := callsite.NewTable()
	b := pl.Bind(tab)
	b.resolve()
	if tab.Lookup(siteA) == 0 {
		t.Fatal("patch site not interned at bind time")
	}
}

func TestPatchString(t *testing.T) {
	p := New(mmbug.BufferOverflow, siteA)
	p.ID = 3
	s := p.String()
	for _, want := range []string{"patch 3", "add padding", "buffer overflow", "xmalloc"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// Property: save/load is lossless for arbitrary pools.
func TestQuickPoolRoundTrip(t *testing.T) {
	bugs := []mmbug.Type{mmbug.BufferOverflow, mmbug.DanglingRead, mmbug.DanglingWrite, mmbug.DoubleFree, mmbug.UninitRead}
	f := func(names []string, revoke []bool) bool {
		pl := NewPool("prog")
		for i, n := range names {
			p := pl.Add(New(bugs[i%len(bugs)], callsite.Key{n, "mid", "outer"}))
			if i < len(revoke) && revoke[i] {
				pl.Revoke(p.ID)
			}
		}
		var buf bytes.Buffer
		if err := pl.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		if got.Len() != pl.Len() || len(got.Active()) != len(pl.Active()) {
			return false
		}
		for i, p := range pl.All() {
			q := got.All()[i]
			if p.ID != q.ID || p.Bug != q.Bug || p.Site != q.Site || p.Revoked != q.Revoked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationCountsEveryMutation(t *testing.T) {
	pl := NewPool("apache")
	g0 := pl.Generation()

	p := pl.Add(New(mmbug.BufferOverflow, siteA))
	g1 := pl.Generation()
	if g1 == g0 {
		t.Fatal("Add did not bump generation")
	}
	if !pl.MarkValidated(p.ID) {
		t.Fatal("MarkValidated failed")
	}
	g2 := pl.Generation()
	if g2 == g1 {
		t.Fatal("MarkValidated did not bump generation")
	}
	if !pl.Revoke(p.ID) {
		t.Fatal("Revoke failed")
	}
	g3 := pl.Generation()
	if g3 == g2 {
		t.Fatal("Revoke did not bump generation")
	}
	// Reviving via a duplicate Add is a mutation too.
	pl.Add(New(mmbug.BufferOverflow, siteA))
	if pl.Generation() == g3 {
		t.Fatal("reviving Add did not bump generation")
	}
	// Misses leave the counter alone.
	before := pl.Generation()
	pl.Revoke(999)
	pl.MarkValidated(999)
	if pl.Generation() != before {
		t.Fatal("failed Revoke/MarkValidated bumped generation")
	}
}

func TestSecondBindingSeesLaterPatches(t *testing.T) {
	// Two bindings of one pool model two fleet workers: a patch added
	// after both have resolved (one worker's diagnosis) must show up at
	// the other worker's next allocation without an explicit Invalidate.
	pl := NewPool("apache")
	ta, tb := callsite.NewTable(), callsite.NewTable()
	ba, bb := pl.Bind(ta), pl.Bind(tb)

	if _, ok := ba.AllocPatch(ta.Intern(siteA)); ok {
		t.Fatal("empty pool resolved a patch")
	}
	if _, ok := bb.AllocPatch(tb.Intern(siteA)); ok {
		t.Fatal("empty pool resolved a patch")
	}

	pl.Add(New(mmbug.BufferOverflow, siteA))
	if act, ok := ba.AllocPatch(ta.Intern(siteA)); !ok || !act.Pad {
		t.Fatalf("binding A missed the new patch: %+v %v", act, ok)
	}
	if act, ok := bb.AllocPatch(tb.Intern(siteA)); !ok || !act.Pad {
		t.Fatalf("binding B missed the new patch: %+v %v", act, ok)
	}
}
