package experiments

import (
	"fmt"
	"strings"

	"firstaid/internal/apps"
	"firstaid/internal/checkpoint"
	"firstaid/internal/core"
	"firstaid/internal/diagnosis"
	"firstaid/internal/workloads"
)

// Ablations quantify the design choices DESIGN.md calls out: the Phase-2
// binary search (vs linear probing), the adaptive checkpoint interval (vs
// fixed), and the delay-free threshold. (The heap-marking ablation lives in
// the diagnosis package's tests: it changes correctness, not cost.)

// AblationSearchRow compares call-site search strategies on one app.
type AblationSearchRow struct {
	App             string
	Sites           int
	BinaryRollbacks int
	LinearRollbacks int
}

// AblationSearch runs the two search strategies on the binary-search apps.
func AblationSearch() []AblationSearchRow {
	var rows []AblationSearchRow
	for _, name := range []string{"apache", "m4", "apache-uir"} {
		row := AblationSearchRow{App: name}
		for _, linear := range []bool{false, true} {
			a, _ := apps.New(name)
			log := a.Workload(700, []int{defaultTrigger})
			sup := newSupervisor(a, log, core.Config{
				Diagnosis: diagnosis.Config{LinearSiteSearch: linear, MaxRollbacks: 600},
			})
			sup.Run()
			if len(sup.Recoveries) == 0 {
				continue
			}
			rec := sup.Recoveries[0]
			row.Sites = len(rec.Patches)
			if linear {
				row.LinearRollbacks = rec.Result.Rollbacks
			} else {
				row.BinaryRollbacks = rec.Result.Rollbacks
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderAblationSearch formats the rows.
func RenderAblationSearch(rows []AblationSearchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: Phase-2 call-site search strategy (rollbacks to identify all sites).\n")
	fmt.Fprintf(&b, "%-12s %8s %18s %18s\n", "Application", "Sites", "Binary (paper)", "Linear (ablated)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %18d %18d\n", r.App, r.Sites, r.BinaryRollbacks, r.LinearRollbacks)
	}
	return b.String()
}

// AblationCheckpointRow compares adaptive vs fixed checkpoint intervals on
// one heavy-dirtying workload.
type AblationCheckpointRow struct {
	Program      string
	Mode         string
	OverheadFrac float64 // vs no checkpointing
	MBPerCkpt    float64
}

// AblationCheckpoint measures the adaptive controller's effect on the
// heaviest dirtier (vortex) and a light one (eon).
func AblationCheckpoint(events int) []AblationCheckpointRow {
	var rows []AblationCheckpointRow
	for _, name := range []string{"255.vortex", "252.eon"} {
		k, _ := workloads.New(name)
		base := RunProgram(k, RunConfig{Events: events, WithExt: true})
		for _, adaptive := range []bool{false, true} {
			k2, _ := workloads.New(name)
			m := RunProgram(k2, RunConfig{
				Events:   events,
				WithExt:  true,
				WithCkpt: true,
				CheckpointCfg: checkpoint.Config{
					Adaptive: adaptive,
				},
			})
			mode := "fixed-200ms"
			if adaptive {
				mode = "adaptive"
			}
			rows = append(rows, AblationCheckpointRow{
				Program:      name,
				Mode:         mode,
				OverheadFrac: float64(m.Cycles)/float64(base.Cycles) - 1,
				MBPerCkpt:    m.CkptStats.MBPerCheckpoint(),
			})
		}
	}
	return rows
}

// RenderAblationCheckpoint formats the rows.
func RenderAblationCheckpoint(rows []AblationCheckpointRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: adaptive vs fixed checkpoint interval.\n")
	fmt.Fprintf(&b, "%-14s %-14s %12s %14s\n", "Program", "Mode", "Overhead", "MB/checkpoint")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-14s %11.2f%% %14.3f\n", r.Program, r.Mode, 100*r.OverheadFrac, r.MBPerCkpt)
	}
	return b.String()
}

// AblationDelayLimitRow measures the delay-free threshold trade-off.
type AblationDelayLimitRow struct {
	LimitKB      int
	Failures     int
	DelayedBytes uint64
}

// AblationDelayLimit sweeps the delay-free threshold on Apache with
// repeated triggers: a too-small threshold recycles delay-freed objects
// that stale pointers still read, re-exposing the bug (the paper's §2
// "can potentially undermine patch effectiveness — the program may fail
// again").
func AblationDelayLimit() []AblationDelayLimitRow {
	var rows []AblationDelayLimitRow
	for _, limitKB := range []int{4, 64, 1024} {
		a, _ := apps.New("apache")
		log := a.Workload(1600, []int{defaultTrigger, 900})
		sup := newSupervisor(a, log, core.Config{
			Machine: core.MachineConfig{DelayLimit: uint64(limitKB) * 1024},
		})
		st := sup.Run()
		rows = append(rows, AblationDelayLimitRow{
			LimitKB:      limitKB,
			Failures:     st.Failures,
			DelayedBytes: sup.Ext().DelayedBytes(),
		})
	}
	return rows
}

// RenderAblationDelayLimit formats the rows.
func RenderAblationDelayLimit(rows []AblationDelayLimitRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: delay-free threshold on Apache (2 bug triggers; 1 failure = full prevention).\n")
	fmt.Fprintf(&b, "%12s %10s %16s\n", "Limit (KB)", "Failures", "Delayed bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %10d %16d\n", r.LimitKB, r.Failures, r.DelayedBytes)
	}
	return b.String()
}
