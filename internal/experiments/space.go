package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/apps"
	"firstaid/internal/workloads"
)

// allPrograms returns the full 22-program roster of the overhead
// experiments: the seven real-bug applications, the SPEC INT2000 kernels
// and the allocation-intensive kernels, with their class labels.
func allPrograms() []struct {
	Prog  app.App
	Class string
} {
	var out []struct {
		Prog  app.App
		Class string
	}
	for _, name := range apps.RealBugNames() {
		a, _ := apps.New(name)
		out = append(out, struct {
			Prog  app.App
			Class string
		}{a, "Applications"})
	}
	for _, name := range workloads.Names() {
		k, _ := workloads.New(name)
		out = append(out, struct {
			Prog  app.App
			Class string
		}{k, k.P.Class})
	}
	return out
}

// --- Table 6 ----------------------------------------------------------------------

// Table6Row is one program's allocator-extension space overhead.
type Table6Row struct {
	Name         string
	Class        string
	OriginalMB   float64
	FirstAidMB   float64
	OverheadFrac float64
}

// Table6 measures heap peaks with the raw allocator vs with the extension
// (16 bytes of in-heap metadata per object).
func Table6(events int) []Table6Row {
	var rows []Table6Row
	for _, pr := range allPrograms() {
		raw := RunProgram(pr.Prog, RunConfig{Events: events})
		ext := RunProgram(pr.Prog, RunConfig{Events: events, WithExt: true})
		row := Table6Row{
			Name:       pr.Prog.Name(),
			Class:      pr.Class,
			OriginalMB: float64(raw.HeapPeak) / (1 << 20),
			FirstAidMB: float64(ext.HeapPeak) / (1 << 20),
		}
		if raw.HeapPeak > 0 {
			row.OverheadFrac = float64(ext.HeapPeak)/float64(raw.HeapPeak) - 1
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable6 formats the rows.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6. Space overhead incurred by the memory allocator extension.\n")
	fmt.Fprintf(&b, "(memory scaled ~1/8 of the paper's testbed; see EXPERIMENTS.md)\n")
	fmt.Fprintf(&b, "%-14s %-22s %14s %14s %10s\n", "Program", "Class", "Original(MB)", "First-Aid(MB)", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-22s %14.3f %14.3f %9.2f%%\n",
			r.Name, r.Class, r.OriginalMB, r.FirstAidMB, 100*r.OverheadFrac)
	}
	return b.String()
}

// --- Table 7 ----------------------------------------------------------------------

// Table7Row is one program's checkpointing space overhead.
type Table7Row struct {
	Name        string
	Class       string
	MBPerCkpt   float64
	MBPerSecond float64
}

// Table7 measures the COW page retention of checkpointing under the
// adaptive-interval scheme.
func Table7(events int) []Table7Row {
	var rows []Table7Row
	for _, pr := range allPrograms() {
		m := RunProgram(pr.Prog, RunConfig{Events: events, WithExt: true, WithCkpt: true})
		rows = append(rows, Table7Row{
			Name:        pr.Prog.Name(),
			Class:       pr.Class,
			MBPerCkpt:   m.CkptStats.MBPerCheckpoint(),
			MBPerSecond: m.CkptStats.MBPerSecond(),
		})
	}
	return rows
}

// RenderTable7 formats the rows.
func RenderTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7. Space overhead incurred by checkpointing (adaptive intervals).\n")
	fmt.Fprintf(&b, "(memory scaled ~1/8 of the paper's testbed; see EXPERIMENTS.md)\n")
	fmt.Fprintf(&b, "%-14s %-22s %16s %14s\n", "Program", "Class", "MB/checkpoint", "MB/second")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-22s %16.3f %14.3f\n", r.Name, r.Class, r.MBPerCkpt, r.MBPerSecond)
	}
	return b.String()
}

// --- Figure 6 ---------------------------------------------------------------------

// Figure6Row is one program's normalized execution time under the two
// First-Aid configurations, in simulated cycles and in host wall time.
type Figure6Row struct {
	Name      string
	Class     string
	Allocator float64 // ext-only time / baseline time
	Overall   float64 // ext+checkpointing time / baseline time

	// AllocatorWall and OverallWall are the same ratios in wall time, from
	// the median run of each configuration.
	AllocatorWall float64
	OverallWall   float64
}

// figure6Runs is how many times Figure 6 runs each configuration: its
// simulated cycles are deterministic, and its wall ratios are medians.
const figure6Runs = 5

// Figure6 measures normal-run time overhead across all 22 programs. The
// three configurations run interleaved, so host drift falls on all three
// alike.
func Figure6(events int) []Figure6Row {
	var rows []Figure6Row
	for _, pr := range allPrograms() {
		var base, ext, all Measurement
		var walls [3][]time.Duration
		for r := 0; r < figure6Runs; r++ {
			base = RunProgram(pr.Prog, RunConfig{Events: events})
			ext = RunProgram(pr.Prog, RunConfig{Events: events, WithExt: true})
			all = RunProgram(pr.Prog, RunConfig{Events: events, WithExt: true, WithCkpt: true})
			for i, m := range []Measurement{base, ext, all} {
				walls[i] = append(walls[i], m.Wall)
			}
		}
		rows = append(rows, Figure6Row{
			Name:          pr.Prog.Name(),
			Class:         pr.Class,
			Allocator:     float64(ext.Cycles) / float64(base.Cycles),
			Overall:       float64(all.Cycles) / float64(base.Cycles),
			AllocatorWall: float64(median(walls[1])) / float64(median(walls[0])),
			OverallWall:   float64(median(walls[2])) / float64(median(walls[0])),
		})
	}
	return rows
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// Figure6Average returns the mean overall overhead fraction.
func Figure6Average(rows []Figure6Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Overall - 1
	}
	return sum / float64(len(rows))
}

// RenderFigure6 formats the rows as the bar-chart data of Figure 6: the
// simulated ratios, the same ratios in wall time, and a bar of the
// simulated overall overhead.
func RenderFigure6(rows []Figure6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6. Overhead for First-Aid during normal execution (normalized time).\n")
	fmt.Fprintf(&b, "%-14s %-22s %10s %10s %10s %10s  %s\n", "Program", "Class", "allocator", "overall", "wall alloc", "wall all", "bar (overall overhead)")
	var wall float64
	for _, r := range rows {
		bar := strings.Repeat("#", int(100*(r.Overall-1)+0.5))
		fmt.Fprintf(&b, "%-14s %-22s %10.3f %10.3f %10.2f %10.2f  %s\n", r.Name, r.Class, r.Allocator, r.Overall, r.AllocatorWall, r.OverallWall, bar)
		wall += r.OverallWall
	}
	if len(rows) > 0 {
		wall /= float64(len(rows))
	}
	fmt.Fprintf(&b, "%-14s %-22s %10s %10.3f %10s %10.2f\n", "Average", "", "", 1+Figure6Average(rows), "", wall)
	return b.String()
}
