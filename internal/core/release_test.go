package core

import (
	"testing"

	"firstaid/internal/apps"
	"firstaid/internal/replay"
	"firstaid/internal/vmem"
)

// TestCollectReleasesValidationClone: a parallel validation's clone hands
// its memory back when the supervisor collects the verdict, so the parent
// stops sharing leaves with a clone that will never run again.
func TestCollectReleasesValidationClone(t *testing.T) {
	prog, _ := apps.New("apache")
	workload := prog.Workload(400, []int{110})

	liveProg, _ := apps.New("apache")
	sup := NewSupervisor(liveProg, replay.NewLog(), Config{ParallelValidation: true})
	seen := map[*Machine]bool{}
	for {
		ev, ok := workload.Next()
		if !ok {
			break
		}
		sup.Ingest(ev.Kind, ev.Data, ev.N)
		for _, pv := range sup.pending {
			seen[pv.clone] = true
		}
	}
	if st := sup.Finish(); st.Recoveries == 0 {
		t.Fatalf("workload never recovered (stats %+v)", st)
	}
	if len(seen) == 0 {
		t.Fatal("no parallel validation was pending after its recovery")
	}
	for clone := range seen {
		if _, err := clone.Mem.Read(vmem.HeapBase, 1); err == nil {
			t.Fatal("a collected validation clone still maps its heap: it was never released")
		}
	}
}
