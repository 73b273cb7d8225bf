package report

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"firstaid/internal/ledger"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

func sampleBundleInput(t *testing.T) BundleInput {
	t.Helper()
	d := guardDiagnosis(t)
	d.Repro = "firstaid-run -chaos-seed 0x2a -chaos-class overflow -chaos-mode sync"
	d.Mode = "sync"
	d.Path = []ledger.Step{
		{Name: "guard-confirm", WallNS: 999, N: 1, Outcome: "confirmed"},
		{Name: "patch-gen", WallNS: 42, N: 1},
	}
	return BundleInput{
		D: d,
		Trace: []trace.Record{
			{Seq: 10, Cycles: 100, WallNS: 555, Kind: trace.KMalloc, Arg1: 0x1000, Arg2: 64},
			{Seq: 11, Cycles: 140, WallNS: 777, Kind: trace.KFree, Arg1: 0x1000},
		},
		Metrics: &telemetry.Snapshot{
			Counters: map[string]uint64{"proc.mallocs": 7},
			Histograms: map[string]telemetry.HistogramSnapshot{
				"recovery_wall_us": {Count: 1},
				"ckpt.pages":       {Count: 2},
			},
		},
	}
}

func TestBundleLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBundle(&buf, sampleBundleInput(t)); err != nil {
		t.Fatal(err)
	}
	files, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"REPRO.txt", "diagnosis.json", "diagnosis.canonical.json",
		"failure.core", "diag.log", "mm_trace_orig.log", "mm_trace_patched.log",
		"illegal_access.log", "report.txt", "trace.txt", "trace.json",
		"metrics.json",
	} {
		if _, ok := files[want]; !ok {
			t.Errorf("bundle missing %s (have %d members)", want, len(files))
		}
	}
	if !strings.Contains(string(files["REPRO.txt"]), "firstaid-run -chaos-seed 0x2a") {
		t.Errorf("REPRO.txt: %s", files["REPRO.txt"])
	}
	if !strings.Contains(string(files["report.txt"]), "GUARD EVIDENCE") {
		t.Errorf("report.txt missing guard section")
	}
	var d ledger.Diagnosis
	if err := json.Unmarshal(files["diagnosis.json"], &d); err != nil {
		t.Fatalf("diagnosis.json: %v", err)
	}
	if d.ID != 1 || len(d.Conditions) == 0 || len(d.Path) != 2 || d.Path[0].Outcome != "confirmed" {
		t.Fatalf("diagnosis.json round-trip: %+v", d)
	}
}

func TestBundleStripWallIsDeterministic(t *testing.T) {
	in := sampleBundleInput(t)
	in.StripWall = true
	var a, b bytes.Buffer
	if err := WriteBundle(&a, in); err != nil {
		t.Fatal(err)
	}
	// Perturb every wall field; the stripped bundle must not change.
	in2 := sampleBundleInput(t)
	in2.StripWall = true
	in2.D.BeginWallNS, in2.D.EndWallNS = 1, 2
	in2.D.RecoverySec, in2.D.ValidationSec = 3, 4
	for i := range in2.D.Conditions {
		in2.D.Conditions[i].WallNS = int64(1000 + i)
	}
	for i := range in2.Trace {
		in2.Trace[i].WallNS = int64(31337 + i)
	}
	for i := range in2.D.Path {
		in2.D.Path[i].WallNS = int64(2000 + i)
	}
	if err := WriteBundle(&b, in2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("stripped bundles differ: %d vs %d bytes", a.Len(), b.Len())
	}
	files, err := ReadBundle(&a)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(files["metrics.json"]), "recovery_wall_us") {
		t.Errorf("stripped metrics still carry wall histograms:\n%s", files["metrics.json"])
	}
	if !strings.Contains(string(files["metrics.json"]), "ckpt.pages") {
		t.Errorf("stripped metrics lost non-wall histogram:\n%s", files["metrics.json"])
	}
}

func TestBundleForSlicesTrace(t *testing.T) {
	trc := trace.New(64)
	em := trc.Emitter(0, nil)
	em.Emit(trace.KMalloc, 0x1, 1) // seq 0: before the window
	em.Emit(trace.KMalloc, 0x2, 2) // seq 1
	other := trc.Emitter(3, nil)
	other.Emit(trace.KMalloc, 0x3, 3) // seq 2: other worker
	em.Emit(trace.KFree, 0x2, 0)      // seq 3
	em.Emit(trace.KMalloc, 0x4, 4)    // seq 4: after the window

	snap := &telemetry.Snapshot{Counters: map[string]uint64{"x": 1}}
	d := &ledger.Diagnosis{ID: 1, Worker: 0, Event: 7, TraceFrom: 1, TraceTo: 4}
	in := BundleFor(d, trc, snap)
	if len(in.Trace) != 2 || in.Trace[0].Seq != 1 || in.Trace[1].Seq != 3 {
		t.Fatalf("trace slice = %+v", in.Trace)
	}
	if in.Metrics != snap {
		t.Fatalf("metrics snapshot: %+v", in.Metrics)
	}
}

func TestWriteBundleFile(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteBundleFile(dir, sampleBundleInput(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "diagnosis-1.tar.gz") {
		t.Fatalf("path = %s", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	files, err := ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty bundle on disk")
	}
}
