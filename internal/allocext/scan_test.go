package allocext

import (
	"testing"

	"firstaid/internal/mmbug"
	"firstaid/internal/vmem"
)

// TestIntactScanAllocatesNothing: the per-event diagnosis scan over intact
// canary regions — padded live objects, canary-filled delay-freed objects
// (some spanning pages) and heap-marking ranges — reads page frames in
// place and allocates nothing, where the Read-based check allocated a copy
// per region.
func TestIntactScanAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	f.ext.SetMode(ModeDiagnostic)
	f.ext.SetChanges(NewChangeSet().
		AddExposing(mmbug.BufferOverflow, nil).
		AddExposing(mmbug.DanglingWrite, nil))
	var live []vmem.Addr
	for i := 0; i < 16; i++ {
		a, err := f.ext.Malloc(uint32(24+i*700), f.site)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, a)
	}
	for _, a := range live[:8] {
		if err := f.ext.Free(a, f.site2); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.ext.MarkHeap(); err != nil {
		t.Fatal(err)
	}
	if len(f.ext.s.padded) == 0 || len(f.ext.s.delayQ) == 0 || len(f.ext.s.marks) == 0 {
		t.Fatalf("fixture scans %d padded, %d delay-freed, %d marked regions; want some of each",
			len(f.ext.s.padded), len(f.ext.s.delayQ), len(f.ext.s.marks))
	}
	allocs := testing.AllocsPerRun(50, f.ext.Scan)
	if ms := f.ext.Manifests(); len(ms.All) != 0 {
		t.Fatalf("intact heap manifested %+v", ms.All)
	}
	if allocs != 0 {
		t.Fatalf("Scan over intact regions allocates %.1f times, want 0", allocs)
	}
}
