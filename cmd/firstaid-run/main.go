// Command firstaid-run executes one of the paper's evaluation applications
// under First-Aid supervision, triggers its bug, and prints recovery
// statistics — each recovery's rollbacks, wall times and the path of
// phases it ran — and (optionally) the full bug report.
//
// Usage:
//
//	firstaid-run -app apache -report
//	firstaid-run -app squid -events 2000 -triggers 300,900,1500
//	firstaid-run -app cvs -pool /tmp/cvs-patches.json   # persist patches
//	firstaid-run -app apache -guard-rate 4096           # sampled guard pages
//	firstaid-run -list
//
// Chaos mode replays a generated bug-injection program from a single
// seed through the differential oracle (reproduces any chaos-harness
// failure):
//
//	firstaid-run -chaos-seed 0x2a -chaos-class double-free
//	firstaid-run -chaos-seed 7 -chaos-class overflow -chaos-mode stream
//	firstaid-run -chaos-seed 13 -chaos-class multi -chaos-combo 0
//	firstaid-run -chaos-seed 5 -chaos-scenario churn -chaos-class overflow
//	firstaid-run -chaos-seed 8 -chaos-class dangling-write -chaos-protect
//	firstaid-run -chaos-seed 0xF34 -chaos-scenario churn -chaos-guard
//
// With -postmortem <dir>, both modes write one postmortem bundle
// (diagnosis-<id>.tar.gz: diagnosis JSON with its timed path, report
// artifacts, trace slice, metrics snapshot, and — for chaos runs — a
// REPRO.txt with the exact firstaid-run command) per recovery at exit. A
// bundle's REPRO.txt replays the identical diagnosis offline:
//
//	firstaid-run -chaos-seed 0x2a -chaos-class overflow -postmortem /tmp/pm
//	tar -xzf /tmp/pm/diagnosis-1.tar.gz REPRO.txt && sh REPRO.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"firstaid"
	"firstaid/internal/apps"
	"firstaid/internal/chaos"
	"firstaid/internal/ledger"
)

func main() {
	var (
		appName    = flag.String("app", "apache", "application to run (see -list)")
		events     = flag.Int("events", 1200, "workload length in events")
		triggers   = flag.String("triggers", "230", "comma-separated bug-trigger positions (empty = clean run)")
		report     = flag.Bool("report", false, "print the full Figure-5-style bug report")
		reportDir  = flag.String("report-dir", "", "write the report artifacts (failure.core, diag.log, traces) into this directory")
		poolPath   = flag.String("pool", "", "patch-pool file to load before and save after the run")
		list       = flag.Bool("list", false, "list available applications and exit")
		system     = flag.String("system", "first-aid", "recovery discipline: first-aid, rx, restart")
		parallel   = flag.Bool("parallel-validation", false, "validate patches on a cloned machine in parallel")
		speculate  = flag.Bool("speculate", true, "race diagnosis hypotheses on COW clones with a pre-warmed standby (identical verdicts, shorter recoveries); -speculate=false re-executes serially")
		metrics    = flag.Bool("metrics", false, "collect telemetry and dump the JSON snapshot (counters, gauges, histograms) at exit")
		tracePath  = flag.String("trace", "", "record an execution trace and write it to this file at exit (inspect with firstaid-trace)")
		traceCap   = flag.Int("trace-cap", 0, "execution-trace ring capacity in records (0 = default 64Ki)")
		guardRate  = flag.Int("guard-rate", 0, "guard-page sampling: redirect ~1/N of allocations onto guard pages so stray accesses trap at the faulting instruction (0 = off; 4096 is the always-on default)")
		guardForce = flag.String("guard-force", "", "comma-separated call-site substrings to guard-sample on every allocation (suspect-site hunting; enables the guard tier even with -guard-rate 0)")

		chaosSeed     = flag.String("chaos-seed", "", "run the chaos harness with this program seed (decimal or 0x hex) instead of an application")
		chaosClass    = flag.String("chaos-class", "none", "chaos bug class to inject: none, overflow, dangling-write, dangling-read, double-free, uninit-read (or 'multi' as shorthand for -chaos-scenario multi)")
		chaosOps      = flag.Int("chaos-ops", 0, "chaos benign-op budget (0 = default 110)")
		chaosMode     = flag.String("chaos-mode", "sync", "chaos execution mode: sync, parallel, stream")
		chaosScenario = flag.String("chaos-scenario", "single", "chaos program shape: single, multi, churn, actors")
		chaosCombo    = flag.Int("chaos-combo", 0, "multi scenario: index into the interacting-bug combo library")
		chaosProtect  = flag.Bool("chaos-protect", false, "mark the corruptible script object a Selfie-style sensitive region (eager detection)")
		chaosGuard    = flag.Bool("chaos-guard", false, "generate the chaos program with guard-page sampling always on (rate 1/2 unless -guard-rate/-guard-force is set)")
		postmortem    = flag.String("postmortem", "", "write one postmortem bundle per recovery (diagnosis-<id>.tar.gz) into this directory at exit")
	)
	flag.Parse()

	var guardSites []string
	for _, part := range strings.Split(*guardForce, ",") {
		if s := strings.TrimSpace(part); s != "" {
			guardSites = append(guardSites, s)
		}
	}

	if *chaosSeed != "" {
		runChaos(*chaosSeed, *chaosClass, *chaosOps, *chaosMode, *chaosScenario, *chaosCombo, *chaosProtect,
			*chaosGuard, *speculate, *guardRate, guardSites, *postmortem)
		return
	}

	if *list {
		fmt.Println("available applications (paper Table 2):")
		for _, n := range apps.Names() {
			fmt.Printf("  %-12s %s\n", n, apps.Describe(n))
		}
		return
	}

	prog, err := apps.New(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var trig []int
	if *triggers != "" {
		for _, part := range strings.Split(*triggers, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad trigger %q: %v\n", part, err)
				os.Exit(1)
			}
			trig = append(trig, v)
		}
	}

	log := prog.Workload(*events, trig)

	var reg *firstaid.Metrics
	if *metrics {
		reg = firstaid.NewMetrics()
	}
	var trc *firstaid.Tracer
	if *tracePath != "" {
		trc = firstaid.NewTracer(*traceCap)
	}
	dumpMetrics := func() {
		if reg == nil {
			return
		}
		out, err := reg.Snapshot().JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rendering metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntelemetry snapshot:\n%s\n", out)
	}
	dumpTrace := func() {
		if trc == nil {
			return
		}
		if err := firstaid.SaveTrace(*tracePath, trc); err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nexecution trace: %d record(s) written to %s (%d dropped by ring wrap)\n",
			len(trc.Snapshot()), *tracePath, trc.Dropped())
	}

	mcfg := firstaid.MachineConfig{Metrics: reg, Trace: trc, GuardRate: *guardRate, GuardForce: guardSites}

	switch *system {
	case "rx":
		rx := firstaid.NewRx(prog, log, mcfg)
		st := rx.Run()
		fmt.Printf("%s under Rx: %d events in %.2f simulated seconds\n", prog.Name(), st.Events, st.SimSeconds)
		fmt.Printf("failures: %d, recoveries: %d, skipped: %d (Rx cannot prevent recurrences)\n",
			st.Failures, st.Recoveries, st.Skipped)
		dumpMetrics()
		dumpTrace()
		return
	case "restart":
		rs := firstaid.NewRestart(prog, log, mcfg)
		st := rs.Run()
		fmt.Printf("%s under restart: %d events in %.2f simulated seconds\n", prog.Name(), st.Events, st.SimSeconds)
		fmt.Printf("failures: %d, restarts: %d (state lost each time)\n", st.Failures, st.Restarts)
		dumpMetrics()
		dumpTrace()
		return
	case "first-aid":
		// fall through
	default:
		fmt.Fprintf(os.Stderr, "unknown -system %q\n", *system)
		os.Exit(1)
	}

	cfg := firstaid.Config{ParallelValidation: *parallel, Speculate: *speculate}
	cfg.Machine = mcfg
	if *poolPath != "" {
		switch pool, err := firstaid.LoadPool(*poolPath); {
		case err == nil:
			cfg.Pool = pool
			fmt.Printf("loaded %d patch(es) from %s\n", pool.Len(), *poolPath)
		case os.IsNotExist(err):
			// First run against this pool file: legitimate, start empty.
			fmt.Printf("pool file %s not found; starting with an empty pool\n", *poolPath)
		default:
			// A corrupt pool must not silently degrade into an empty one —
			// that would discard every previously diagnosed patch on save.
			fmt.Fprintf(os.Stderr, "loading pool %s: %v\n", *poolPath, err)
			os.Exit(1)
		}
	}
	sup := firstaid.New(prog, log, cfg)
	stats := sup.Run()

	fmt.Printf("%s: %d events in %.2f simulated seconds\n", prog.Name(), stats.Events, stats.SimSeconds)
	fmt.Printf("failures: %d, recoveries: %d, skipped: %d, patches: %d\n",
		stats.Failures, stats.Recoveries, stats.Skipped, stats.PatchesMade)
	for i, rec := range sup.Recoveries {
		fmt.Printf("\nrecovery %d: %v at event #%d\n", i+1, rec.Fault.Kind, rec.Fault.Event)
		for _, fd := range rec.Result.Findings {
			fmt.Printf("  diagnosed: %v at %d call-site(s)\n", fd.Bug, len(fd.Sites))
		}
		fmt.Printf("  rollbacks: %d, recovery: %.3fs, validation: %.3fs (consistent: %v)\n",
			rec.Result.Rollbacks, rec.RecoveryWall.Seconds(), rec.ValidationWall.Seconds(), rec.Validated)
		if d := rec.Ledger.Snapshot(); d != nil {
			fmt.Printf("  path: %s\n", formatPath(d.Path))
		}
	}
	for _, p := range sup.Pool.Active() {
		fmt.Printf("  %v\n", p)
	}

	if *report && len(sup.Recoveries) > 0 && sup.Recoveries[0].Report != nil {
		fmt.Println()
		fmt.Println(sup.Recoveries[0].Report)
	}
	if *reportDir != "" && len(sup.Recoveries) > 0 && sup.Recoveries[0].Report != nil {
		paths, err := sup.Recoveries[0].Report.WriteFiles(*reportDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing report artifacts: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nreport artifacts written:\n")
		for _, p := range paths {
			fmt.Printf("  %s\n", p)
		}
	}
	if *postmortem != "" {
		paths, err := sup.WritePostmortems(*postmortem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing postmortems: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\npostmortem bundles written:\n")
		for _, p := range paths {
			fmt.Printf("  %s\n", p)
		}
	}
	if *poolPath != "" {
		if err := sup.Pool.SaveFile(*poolPath); err != nil {
			fmt.Fprintf(os.Stderr, "saving pool: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\npatch pool saved to %s\n", *poolPath)
	}
	if reg != nil {
		out, err := reg.Snapshot().JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rendering metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntelemetry snapshot:\n%s\n", out)
	}
	dumpTrace()
}

// formatPath renders a recovery's path on one line: each phase with its
// count, outcome and wall time, in the order the phases ran.
func formatPath(path []ledger.Step) string {
	steps := make([]string, len(path))
	for i, st := range path {
		steps[i] = fmt.Sprintf("%s n=%d", st.Name, st.N)
		if st.Outcome != "" {
			steps[i] += " " + st.Outcome
		}
		steps[i] += fmt.Sprintf(" (%.1fms)", float64(st.WallNS)/float64(time.Millisecond))
	}
	return strings.Join(steps, " -> ")
}

// runChaos reproduces one chaos-harness run from its seed and exits
// non-zero if the differential oracle rejects the recovered state or the
// diagnosis misses the program's ground-truth bug set — the one-liner that
// replays any cell of the accuracy matrix or any failure a chaos test or
// fuzz run reports.
func runChaos(seedStr, classStr string, ops int, modeStr, scenarioStr string, combo int, protect bool,
	guard, speculate bool, guardRate int, guardForce []string, postmortemDir string) {
	seed, err := strconv.ParseUint(seedStr, 0, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -chaos-seed %q: %v\n", seedStr, err)
		os.Exit(1)
	}
	if classStr == "multi" {
		// Shorthand: -chaos-class multi == -chaos-scenario multi.
		classStr, scenarioStr = "none", "multi"
	}
	class, err := chaos.ParseClassFlag(classStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -chaos-class: %v\n", err)
		os.Exit(1)
	}
	mode, err := chaos.ParseModeFlag(modeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -chaos-mode: %v\n", err)
		os.Exit(1)
	}
	scenario, err := chaos.ParseScenarioFlag(scenarioStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -chaos-scenario: %v\n", err)
		os.Exit(1)
	}
	cfg := chaos.RunConfig{
		Seed: seed, Class: class, Ops: ops, Mode: mode,
		Scenario: scenario, Combo: combo, Protect: protect, Guard: guard,
		Speculate: speculate,
	}
	cfg.Machine.GuardRate = guardRate
	cfg.Machine.GuardForce = guardForce
	out := chaos.Run(cfg)
	fmt.Print(out.Verdict())
	if postmortemDir != "" {
		paths, err := out.WritePostmortems(postmortemDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing postmortems: %v\n", err)
			os.Exit(1)
		}
		for _, p := range paths {
			fmt.Printf("postmortem bundle: %s\n", p)
		}
	}
	if !out.OK() {
		os.Exit(1)
	}
	if err := out.CheckExpected(); err != nil {
		fmt.Printf("ground truth: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ground truth: every injected bug diagnosed or neutralized at its exact site")
}
