package core

import (
	"testing"

	"firstaid/internal/apps"
	"firstaid/internal/replay"
)

// TestStreamingMatchesOfflineRun: streaming supervision is the offline loop
// fed one event at a time — ingesting a workload live must produce exactly
// the statistics of an offline Run over the same inputs, and the log the
// recorder accumulates must re-run offline to the same result. This is the
// paper's network-input-recorder property: live traffic is replayable, and
// replaying it reproduces the failure and the recovery bit for bit.
func TestStreamingMatchesOfflineRun(t *testing.T) {
	for _, name := range []string{"apache", "squid", "cvs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prog, err := apps.New(name)
			if err != nil {
				t.Fatal(err)
			}
			workload := prog.Workload(700, []int{230})

			// Offline reference run.
			offProg, _ := apps.New(name)
			off := NewSupervisor(offProg, workload.Clone(), Config{})
			offStats := off.Run()
			if offStats.Failures == 0 {
				t.Fatalf("workload did not trigger the bug offline: %+v", offStats)
			}

			// Streaming run: same events, ingested live one at a time.
			liveProg, _ := apps.New(name)
			live := NewSupervisor(liveProg, replay.NewLog(), Config{})
			var results []IngestResult
			for feed := workload.Clone(); ; {
				ev, ok := feed.Next()
				if !ok {
					break
				}
				results = append(results, live.Ingest(ev.Kind, ev.Data, ev.N))
			}
			liveStats := live.Finish()

			// Outcomes must be identical. Simulated elapsed time is not:
			// offline recovery re-executes events past the failure point
			// (they are already in the log), while under streaming those
			// events have not arrived yet — so the offline clock counts
			// some events twice that the live clock counts once.
			liveCmp, offCmp := liveStats, offStats
			liveCmp.SimSeconds, offCmp.SimSeconds = 0, 0
			if liveCmp != offCmp {
				t.Fatalf("streaming diverged from offline:\nlive:    %+v\noffline: %+v", liveStats, offStats)
			}
			if len(results) != workload.Len() {
				t.Fatalf("ingest returned %d results for %d events", len(results), workload.Len())
			}

			// Per-event attribution must sum to the run totals.
			var failures, recovered, skipped int
			for i, r := range results {
				if r.Seq != i {
					t.Fatalf("result %d has recorder seq %d", i, r.Seq)
				}
				failures += r.Failures
				if r.Recovered {
					recovered++
				}
				if r.Skipped {
					skipped++
				}
			}
			if failures != liveStats.Failures {
				t.Fatalf("per-event failures sum to %d, stats say %d", failures, liveStats.Failures)
			}
			if skipped != liveStats.Skipped {
				t.Fatalf("per-event skips sum to %d, stats say %d", skipped, liveStats.Skipped)
			}
			if recovered == 0 {
				t.Fatal("no ingest result reported the recovery")
			}

			// The recorded log must hold exactly the ingested stream and
			// re-run offline (fresh supervisor, fresh pool) to statistics
			// bit-identical with the offline reference — record-replay
			// equivalence, SimSeconds included, since both runs are offline.
			recorded := live.Log().Clone()
			recorded.SetCursor(0)
			if recorded.Len() != workload.Len() {
				t.Fatalf("recorded log has %d events, ingested %d", recorded.Len(), workload.Len())
			}
			repProg, _ := apps.New(name)
			rep := NewSupervisor(repProg, recorded, Config{})
			repStats := rep.Run()
			if repStats != offStats {
				t.Fatalf("replaying the recorded log diverged:\nreplay:  %+v\noffline: %+v", repStats, offStats)
			}
		})
	}
}

// TestIngestAttributesFailureToTriggeringEvent: the IngestResult of the
// bug-manifesting event — and only that event — must carry the failure
// and the recovery; clean traffic before and after reports clean results.
func TestIngestAttributesFailureToTriggeringEvent(t *testing.T) {
	prog, _ := apps.New("apache")
	workload := prog.Workload(400, []int{110})

	liveProg, _ := apps.New("apache")
	sup := NewSupervisor(liveProg, replay.NewLog(), Config{})
	var failedAt []int
	for {
		ev, ok := workload.Next()
		if !ok {
			break
		}
		r := sup.Ingest(ev.Kind, ev.Data, ev.N)
		if r.Failed {
			if !r.Recovered && !r.Skipped {
				t.Fatalf("event %d failed but was neither recovered nor skipped: %+v", r.Seq, r)
			}
			failedAt = append(failedAt, r.Seq)
		} else if r.Recovered || r.Skipped {
			t.Fatalf("clean event %d reports recovery: %+v", r.Seq, r)
		}
		if r.SimCycles == 0 {
			t.Fatalf("event %d consumed no simulated time", r.Seq)
		}
	}
	st := sup.Finish()
	if len(failedAt) == 0 || st.Failures == 0 {
		t.Fatalf("workload never failed (stats %+v)", st)
	}
	if len(failedAt) != st.Recoveries+st.Skipped {
		t.Fatalf("%d events failed but stats show %d recoveries + %d skips",
			len(failedAt), st.Recoveries, st.Skipped)
	}
}

// TestIngestSkipsUndiagnosableEvent: streaming a layout-dependent semantic
// bug (the §5 misdiagnosis scenario) runs the whole retry→revoke→skip
// cycle inside a single Ingest call; the caller sees one Skipped result
// and the supervisor stays serviceable for subsequent traffic.
func TestIngestSkipsUndiagnosableEvent(t *testing.T) {
	prog := &layoutBug{}
	workload := prog.Workload(120, []int{60})

	sup := NewSupervisor(&layoutBug{}, replay.NewLog(), Config{})
	var skips int
	for {
		ev, ok := workload.Next()
		if !ok {
			break
		}
		r := sup.Ingest(ev.Kind, ev.Data, ev.N)
		if r.Skipped {
			skips++
			if !r.Failed {
				t.Fatalf("skipped event not marked failed: %+v", r)
			}
		}
	}
	st := sup.Finish()
	if skips == 0 && st.Skipped == 0 {
		// The semantic bug may be absorbed by a (mis)patch that happens to
		// validate; what matters is the stream kept flowing either way.
		t.Logf("wild write absorbed without skip: %+v", st)
	}
	// Events counts executions (a recovered event runs again after the
	// rollback), so it can exceed the distinct-event count — but every
	// distinct event must have made it into the recorded log.
	if got := sup.Log().Len(); got != workload.Len() {
		t.Fatalf("recorded %d of %d events", got, workload.Len())
	}
	if st.Events < workload.Len() {
		t.Fatalf("processed %d executions for %d events", st.Events, workload.Len())
	}
	if skips != st.Skipped {
		t.Fatalf("per-event skips %d != stats %d", skips, st.Skipped)
	}
}
