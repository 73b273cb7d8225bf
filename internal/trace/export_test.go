package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// syntheticRecs builds a two-track trace with nested phases, an ingest
// pair, and instant records — the shapes the exporter must render.
func syntheticRecs() []Record {
	return []Record{
		{Seq: 0, Worker: 0, Cycles: 10, WallNS: 1_000, Kind: KBatchBegin, Arg1: 7, Arg2: 1},
		{Seq: 1, Worker: 0, Cycles: 20, WallNS: 2_000, Kind: KMalloc, Arg1: 3, Arg2: 64},
		{Seq: 2, Worker: 0, Cycles: 30, WallNS: 3_000, Kind: KPhaseBegin, Arg1: PhaseRecovery, Arg2: 7},
		{Seq: 3, Worker: 0, Cycles: 40, WallNS: 4_000, Kind: KPhaseBegin, Arg1: PhaseDiag1, Arg2: 7},
		{Seq: 4, Worker: 0, Cycles: 50, WallNS: 5_000, Kind: KRollback, Arg1: 2, Arg2: 100},
		{Seq: 5, Worker: 0, Cycles: 60, WallNS: 6_000, Kind: KPhaseEnd, Arg1: PhaseDiag1, Arg2: 1},
		{Seq: 6, Worker: 0, Cycles: 70, WallNS: 7_000, Kind: KPhaseEnd, Arg1: PhaseRecovery, Arg2: 1},
		{Seq: 7, Worker: 0, Cycles: 80, WallNS: 8_000, Kind: KBatchEnd, Arg1: 7, Arg2: 1},
		{Seq: 8, Worker: uint16(ValidationTrack(0, 0)), Cycles: 5, WallNS: 5_500, Kind: KPhaseBegin, Arg1: PhaseValidation, Arg2: 7},
		{Seq: 9, Worker: uint16(ValidationTrack(0, 0)), Cycles: 9, WallNS: 7_500, Kind: KPhaseEnd, Arg1: PhaseValidation, Arg2: 2},
		{Seq: 10, Worker: FleetTrack, Cycles: 0, WallNS: 900, Kind: KDispatch, Arg1: 0, Arg2: 1},
	}
}

func TestChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, syntheticRecs()); err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}

	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	names := map[string]bool{}
	var metas int
	ingest := map[any]int{}
	for _, ev := range events {
		if ev["name"] == "ingest" {
			ingest[ev["ph"]]++
		}
		if ev["ph"] == "M" {
			metas++
			args, _ := ev["args"].(map[string]any)
			name, _ := args["name"].(string)
			names[name] = true
		}
	}
	if metas != 3 {
		t.Fatalf("got %d thread_name metadata events, want 3 (one per track)", metas)
	}
	for _, want := range []string{"worker-0", "worker-0/validation-0", "fleet"} {
		if !names[want] {
			t.Fatalf("missing thread_name %q; got %v", want, names)
		}
	}
	if ingest["B"] != 1 || ingest["E"] != 1 || len(ingest) != 2 {
		t.Fatalf("ingest records rendered as %v, want one B/E slice", ingest)
	}
}

func TestChromeTraceSelfHeals(t *testing.T) {
	// A phase open at dump time must be closed; an end whose begin rotated
	// out of the ring must be dropped. Either way the export validates.
	recs := []Record{
		{Seq: 0, Worker: 0, WallNS: 1_000, Kind: KPhaseEnd, Arg1: PhaseDiag2, Arg2: 1},
		{Seq: 1, Worker: 0, WallNS: 2_000, Kind: KPhaseBegin, Arg1: PhaseRecovery, Arg2: 3},
		{Seq: 2, Worker: 0, WallNS: 3_000, Kind: KMalloc, Arg1: 1, Arg2: 8},
	}
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, recs); err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("self-healed trace fails validation: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "openAtDump") {
		t.Fatal("open phase was not closed with an openAtDump marker")
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, nil); err != nil {
		t.Fatalf("ChromeTrace(nil): %v", err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("empty trace fails validation: %v", err)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not an array", `{"ph":"i"}`},
		{"missing ph", `[{"ts":1,"pid":1,"tid":0}]`},
		{"missing ts", `[{"ph":"i","pid":1,"tid":0}]`},
		{"non-monotonic ts", `[
			{"ph":"i","name":"a","ts":5,"pid":1,"tid":0},
			{"ph":"i","name":"b","ts":4,"pid":1,"tid":0}]`},
		{"E without B", `[{"ph":"E","name":"recovery","ts":1,"pid":1,"tid":0}]`},
		{"unmatched B", `[{"ph":"B","name":"recovery","ts":1,"pid":1,"tid":0}]`},
		{"mismatched E name", `[
			{"ph":"B","name":"recovery","ts":1,"pid":1,"tid":0},
			{"ph":"E","name":"phase1","ts":2,"pid":1,"tid":0}]`},
		{"X without dur", `[{"ph":"X","name":"a","ts":1,"pid":1,"tid":0}]`},
		{"unknown ph", `[{"ph":"Z","name":"a","ts":1,"pid":1,"tid":0}]`},
	}
	for _, c := range cases {
		if err := ValidateChrome([]byte(c.data)); err == nil {
			t.Errorf("%s: ValidateChrome accepted invalid input", c.name)
		}
	}
	// Monotonicity is per track: equal ts and different tracks are fine.
	ok := `[
		{"ph":"i","name":"a","ts":5,"pid":1,"tid":0},
		{"ph":"i","name":"b","ts":1,"pid":1,"tid":1},
		{"ph":"X","name":"c","ts":2,"pid":1,"tid":1,"dur":3}]`
	if err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("ValidateChrome rejected valid input: %v", err)
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, syntheticRecs()); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if got := strings.Count(out, "\n"); got != len(syntheticRecs()) {
		t.Fatalf("timeline has %d lines, want %d", got, len(syntheticRecs()))
	}
	for _, want := range []string{
		"malloc", "site=3 bytes=64",
		"recovery anchor=7",
		"seq=7 events=1",
		"fleet", "worker-0/validation-0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestToJSON(t *testing.T) {
	r := Record{Seq: 4, Cycles: 99, WallNS: 123, Kind: KCOWCopy, Worker: 2, Arg1: 8, Arg2: 0}
	j := ToJSON(r)
	if j.Kind != "cow-copy" || j.Worker != "worker-2" || j.Seq != 4 || j.Cycles != 99 {
		t.Fatalf("ToJSON = %+v", j)
	}
	if _, err := json.Marshal(j); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}
