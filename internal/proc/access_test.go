package proc

import (
	"testing"

	"firstaid/internal/allocext"
	"firstaid/internal/callsite"
)

// delayAll is a patch source that delays every free.
type delayAll struct{}

func (delayAll) AllocPatch(callsite.ID) (allocext.AllocAction, bool) {
	return allocext.AllocAction{}, false
}

func (delayAll) FreePatch(callsite.ID) (allocext.FreeAction, bool) {
	return allocext.FreeAction{Delay: true}, true
}

// TestValidationLoadAllocatesNothing: in validation mode every load and
// store goes to the access checker, which asks for the instruction label
// only for an access it records. A legal load in a frame labelled with At
// allocates nothing, and a recorded illegal access still names
// "fn:label".
func TestValidationLoadAllocatesNothing(t *testing.T) {
	p, ext := newExtProc(t)
	ext.SetPatches(delayAll{})
	ext.SetMode(allocext.ModeValidation)
	ext.BeginTrace()
	p.SetAccessChecker(ext)
	defer p.Enter("handler")()
	p.At("read")
	live := p.Malloc(64)
	freed := p.Malloc(64)
	p.Free(freed) // delayed: the watch index is not empty
	if allocs := testing.AllocsPerRun(100, func() { p.LoadU32(live) }); allocs != 0 {
		t.Fatalf("a validation-mode load allocates %.1f times, want 0", allocs)
	}
	p.LoadU32(freed + 8)
	tr := ext.EndTrace()
	if len(tr.Illegal) != 1 {
		t.Fatalf("illegal accesses = %+v, want the one dangling read", tr.Illegal)
	}
	if ia := tr.Illegal[0]; ia.Kind != allocext.FreedRead || ia.Instr != "handler:read" || ia.Offset != 8 {
		t.Fatalf("dangling read recorded as %+v, want a read of freed memory by handler:read at offset 8", ia)
	}
}
