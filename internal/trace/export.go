// Exporters: Chrome trace-event JSON (chrome://tracing, Perfetto), the
// human-readable text timeline, and the summarizer behind
// `firstaid-trace summarize`.

package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeMeta is a metadata event (thread naming); it carries no timestamp.
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromePid is the single process all tracks render under; tracks are
// threads named after their worker (or validation clone).
const chromePid = 1

// ChromeTrace renders recs as a Chrome trace-event JSON array: one thread
// track per worker, pipeline phases as nested B/E duration events, point
// records as instant events. Timestamps are microseconds of wall time
// relative to the earliest record, clamped non-decreasing per track (wall
// stamps are taken outside the ring lock, so cross-shard jitter of a few
// nanoseconds is possible; the timeline view requires monotonic ts).
func ChromeTrace(w io.Writer, recs []Record) error {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	var t0 int64
	if len(sorted) > 0 {
		t0 = sorted[0].WallNS
		for _, r := range sorted {
			if r.WallNS < t0 {
				t0 = r.WallNS
			}
		}
	}

	var out []any
	tracks := map[uint16]bool{}
	lastTS := map[uint16]float64{}
	// Per-track stack of open B events, for self-healing: an E without a
	// B is dropped, a B left open at the end is closed at the track's
	// last timestamp so the array always balances.
	open := map[uint16][]string{}

	ts := func(r Record) float64 {
		t := float64(r.WallNS-t0) / 1e3
		if last, ok := lastTS[r.Worker]; ok && t < last {
			t = last
		}
		lastTS[r.Worker] = t
		return t
	}
	track := func(wk uint16) int { return int(wk) }

	for _, r := range sorted {
		if !tracks[r.Worker] {
			tracks[r.Worker] = true
			out = append(out, chromeMeta{
				Name: "thread_name", Ph: "M", Pid: chromePid, Tid: track(r.Worker),
				Args: map[string]any{"name": TrackName(r.Worker)},
			})
		}
		switch r.Kind {
		case KPhaseBegin:
			name := PhaseName(r.Arg1)
			open[r.Worker] = append(open[r.Worker], name)
			out = append(out, chromeEvent{
				Name: name, Ph: "B", TS: ts(r), Pid: chromePid, Tid: track(r.Worker),
				Args: map[string]any{"cycles": r.Cycles, "anchor": r.Arg2},
			})
		case KPhaseEnd:
			name := PhaseName(r.Arg1)
			st := open[r.Worker]
			if len(st) == 0 {
				continue // E without a B (begin rotated out of the ring)
			}
			open[r.Worker] = st[:len(st)-1]
			out = append(out, chromeEvent{
				Name: name, Ph: "E", TS: ts(r), Pid: chromePid, Tid: track(r.Worker),
				Args: map[string]any{"cycles": r.Cycles, "n": r.Arg2},
			})
		case KBatchBegin:
			open[r.Worker] = append(open[r.Worker], "ingest")
			out = append(out, chromeEvent{
				Name: "ingest", Ph: "B", TS: ts(r), Pid: chromePid, Tid: track(r.Worker),
				Args: map[string]any{"seq": r.Arg1, "events": r.Arg2, "cycles": r.Cycles},
			})
		case KBatchEnd:
			st := open[r.Worker]
			if len(st) == 0 {
				continue
			}
			open[r.Worker] = st[:len(st)-1]
			out = append(out, chromeEvent{
				Name: "ingest", Ph: "E", TS: ts(r), Pid: chromePid, Tid: track(r.Worker),
				Args: map[string]any{"seq": r.Arg1, "events": r.Arg2, "cycles": r.Cycles},
			})
		default:
			out = append(out, chromeEvent{
				Name: r.Kind.String(), Ph: "i", TS: ts(r), Pid: chromePid, Tid: track(r.Worker), S: "t",
				Args: map[string]any{"arg1": r.Arg1, "arg2": r.Arg2, "cycles": r.Cycles},
			})
		}
	}

	// Close any B left open (an in-flight phase at dump time).
	workers := make([]int, 0, len(open))
	for wk := range open {
		workers = append(workers, int(wk))
	}
	sort.Ints(workers)
	for _, wki := range workers {
		wk := uint16(wki)
		st := open[wk]
		for i := len(st) - 1; i >= 0; i-- {
			out = append(out, chromeEvent{
				Name: st[i], Ph: "E", TS: lastTS[wk], Pid: chromePid, Tid: track(wk),
				Args: map[string]any{"openAtDump": true},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ValidateChrome structurally checks a Chrome trace-event JSON export: a
// well-formed JSON array whose timestamps are monotonic per track and
// whose B/E duration events balance (every B matched by an E, every X
// carrying a duration). Shared by the exporter's unit test and the
// fleet /trace end-to-end test.
func ValidateChrome(data []byte) error {
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("not a JSON array of events: %w", err)
	}
	type trackKey struct{ pid, tid int }
	lastTS := map[trackKey]float64{}
	depth := map[trackKey][]string{}
	for i, ev := range events {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			return fmt.Errorf("event %d: missing ph", i)
		}
		pid, _ := ev["pid"].(float64)
		tid, _ := ev["tid"].(float64)
		k := trackKey{int(pid), int(tid)}
		if ph == "M" {
			continue // metadata events carry no timestamp
		}
		ts, ok := ev["ts"].(float64)
		if !ok {
			return fmt.Errorf("event %d (%s): missing ts", i, ph)
		}
		if last, seen := lastTS[k]; seen && ts < last {
			return fmt.Errorf("event %d: ts %v < %v on track %v", i, ts, last, k)
		}
		lastTS[k] = ts
		name, _ := ev["name"].(string)
		switch ph {
		case "B":
			depth[k] = append(depth[k], name)
		case "E":
			st := depth[k]
			if len(st) == 0 {
				return fmt.Errorf("event %d: E %q without matching B on track %v", i, name, k)
			}
			if top := st[len(st)-1]; name != "" && top != name {
				return fmt.Errorf("event %d: E %q closes B %q on track %v", i, name, top, k)
			}
			depth[k] = st[:len(st)-1]
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				return fmt.Errorf("event %d: X without dur", i)
			}
		case "i", "I", "C":
			// instant/counter events need only the ts checked above
		default:
			return fmt.Errorf("event %d: unexpected ph %q", i, ph)
		}
	}
	for k, st := range depth {
		if len(st) != 0 {
			return fmt.Errorf("track %v: %d unmatched B events (%v)", k, len(st), st)
		}
	}
	return nil
}

// WriteText renders recs as a human-readable timeline, one line per
// record, in global order.
func WriteText(w io.Writer, recs []Record) error {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	var t0 int64
	if len(sorted) > 0 {
		t0 = sorted[0].WallNS
		for _, r := range sorted {
			if r.WallNS < t0 {
				t0 = r.WallNS
			}
		}
	}
	for _, r := range sorted {
		us := float64(r.WallNS-t0) / 1e3
		var detail string
		switch r.Kind {
		case KMalloc:
			detail = fmt.Sprintf("site=%d bytes=%d", r.Arg1, r.Arg2)
		case KFree:
			detail = fmt.Sprintf("site=%d bytes=%d", r.Arg1, r.Arg2)
		case KRealloc:
			detail = fmt.Sprintf("site=%d newBytes=%d", r.Arg1, r.Arg2)
		case KSbrkGrow, KMmapAlloc:
			detail = fmt.Sprintf("bytes=%d class=%d", r.Arg1, r.Arg2)
		case KPageFault:
			kind := "read"
			if r.Arg2&(1<<63) != 0 {
				kind = "write"
			}
			detail = fmt.Sprintf("addr=%#x len=%d %s", r.Arg1, r.Arg2&^(uint64(1)<<63), kind)
		case KCOWCopy:
			detail = fmt.Sprintf("page=%d", r.Arg1)
		case KSnapshot, KRestore:
			detail = fmt.Sprintf("pages=%d", r.Arg1)
		case KCkptTake:
			detail = fmt.Sprintf("ckpt=%d dirtyPages=%d", r.Arg1, r.Arg2)
		case KRollback:
			detail = fmt.Sprintf("ckpt=%d cursor=%d", r.Arg1, r.Arg2)
		case KTrap:
			detail = fmt.Sprintf("faultKind=%d addr=%#x", r.Arg1, r.Arg2)
		case KPhaseBegin:
			detail = fmt.Sprintf("%s anchor=%d", PhaseName(r.Arg1), r.Arg2)
		case KPhaseEnd:
			detail = fmt.Sprintf("%s n=%d", PhaseName(r.Arg1), r.Arg2)
		case KPatchAdd, KPatchRevoke, KPatchValidate:
			detail = fmt.Sprintf("patch=%d gen=%d", r.Arg1, r.Arg2)
		case KBatchBegin, KBatchEnd:
			detail = fmt.Sprintf("seq=%d events=%d", r.Arg1, r.Arg2)
		default:
			detail = fmt.Sprintf("arg1=%d arg2=%d", r.Arg1, r.Arg2)
		}
		if _, err := fmt.Fprintf(w, "%8d %+12.3fµs cy=%-10d %-24s %-14s %s\n",
			r.Seq, us, r.Cycles, TrackName(r.Worker), r.Kind, detail); err != nil {
			return err
		}
	}
	return nil
}

// PhaseStat is one pipeline phase's aggregate in a Summary.
type PhaseStat struct {
	ID       uint64 `json:"id"`
	Name     string `json:"name"`
	Count    int    `json:"count"`
	Cycles   uint64 `json:"cycles"`
	WallNS   int64  `json:"wallNs"`
	Open     int    `json:"open,omitempty"` // begun but not ended at dump time
	WorkDone uint64 `json:"workDone,omitempty"`
}

// SiteStat is one allocation call-site's volume in a Summary.
type SiteStat struct {
	Site  uint64 `json:"site"`
	Count uint64 `json:"count"`
	Bytes uint64 `json:"bytes"`
}

// Summary is the aggregate view printed by `firstaid-trace summarize`.
type Summary struct {
	Records  int               `json:"records"`
	Workers  int               `json:"workers"`
	SpanNS   int64             `json:"spanNs"`
	Kinds    map[string]uint64 `json:"kinds"`
	Phases   []PhaseStat       `json:"phases"`   // by phase ID
	TopSites []SiteStat        `json:"topSites"` // by allocation bytes, descending
}

// Summarize aggregates recs: per-phase cycle and wall breakdown (B/E
// pairs matched per track), allocation volume per call-site, record
// counts per kind.
func Summarize(recs []Record) *Summary {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	s := &Summary{Kinds: map[string]uint64{}}
	workers := map[uint16]bool{}
	phases := map[uint64]*PhaseStat{}
	sites := map[uint64]*SiteStat{}
	type openPhase struct{ r Record }
	open := map[uint16][]openPhase{} // per-track stack of phase begins

	phase := func(id uint64) *PhaseStat {
		p, ok := phases[id]
		if !ok {
			p = &PhaseStat{ID: id, Name: PhaseName(id)}
			phases[id] = p
		}
		return p
	}

	var minW, maxW int64
	for i, r := range sorted {
		s.Records++
		s.Kinds[r.Kind.String()]++
		workers[r.Worker] = true
		if i == 0 || r.WallNS < minW {
			minW = r.WallNS
		}
		if i == 0 || r.WallNS > maxW {
			maxW = r.WallNS
		}
		switch r.Kind {
		case KMalloc:
			st, ok := sites[r.Arg1]
			if !ok {
				st = &SiteStat{Site: r.Arg1}
				sites[r.Arg1] = st
			}
			st.Count++
			st.Bytes += r.Arg2
		case KPhaseBegin:
			open[r.Worker] = append(open[r.Worker], openPhase{r})
		case KPhaseEnd:
			stack := open[r.Worker]
			if len(stack) == 0 {
				continue
			}
			b := stack[len(stack)-1]
			open[r.Worker] = stack[:len(stack)-1]
			if b.r.Arg1 != r.Arg1 {
				continue // interleaving damaged by ring wraparound
			}
			p := phase(r.Arg1)
			p.Count++
			p.WorkDone += r.Arg2
			if r.Cycles >= b.r.Cycles {
				p.Cycles += r.Cycles - b.r.Cycles
			}
			if r.WallNS >= b.r.WallNS {
				p.WallNS += r.WallNS - b.r.WallNS
			}
		}
	}
	for _, stack := range open {
		for _, b := range stack {
			phase(b.r.Arg1).Open++
		}
	}
	s.Workers = len(workers)
	if s.Records > 0 {
		s.SpanNS = maxW - minW
	}
	for _, p := range phases {
		s.Phases = append(s.Phases, *p)
	}
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].ID < s.Phases[j].ID })
	for _, st := range sites {
		s.TopSites = append(s.TopSites, *st)
	}
	sort.Slice(s.TopSites, func(i, j int) bool {
		if s.TopSites[i].Bytes != s.TopSites[j].Bytes {
			return s.TopSites[i].Bytes > s.TopSites[j].Bytes
		}
		return s.TopSites[i].Site < s.TopSites[j].Site
	})
	return s
}

// Format renders the summary as text, truncating the call-site table to
// topN entries (<= 0 means 10).
func (s *Summary) Format(w io.Writer, topN int) error {
	if topN <= 0 {
		topN = 10
	}
	fmt.Fprintf(w, "records: %d across %d track(s), wall span %.3f ms\n",
		s.Records, s.Workers, float64(s.SpanNS)/1e6)

	if len(s.Phases) > 0 {
		fmt.Fprintf(w, "\nper-phase breakdown (cycles are simulated time):\n")
		fmt.Fprintf(w, "  %-12s %8s %14s %14s %6s\n", "phase", "count", "cycles", "wall-ms", "open")
		for _, p := range s.Phases {
			fmt.Fprintf(w, "  %-12s %8d %14d %14.3f %6d\n",
				p.Name, p.Count, p.Cycles, float64(p.WallNS)/1e6, p.Open)
		}
	}

	if len(s.TopSites) > 0 {
		n := topN
		if n > len(s.TopSites) {
			n = len(s.TopSites)
		}
		fmt.Fprintf(w, "\ntop %d call-sites by allocation volume:\n", n)
		fmt.Fprintf(w, "  %-10s %10s %14s\n", "site", "mallocs", "bytes")
		for _, st := range s.TopSites[:n] {
			fmt.Fprintf(w, "  %-10d %10d %14d\n", st.Site, st.Count, st.Bytes)
		}
	}

	if len(s.Kinds) > 0 {
		names := make([]string, 0, len(s.Kinds))
		for k := range s.Kinds {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "\nrecords by kind:\n")
		for _, k := range names {
			fmt.Fprintf(w, "  %-16s %10d\n", k, s.Kinds[k])
		}
	}
	return nil
}

// RecordJSON is the SSE/JSON view of one record.
type RecordJSON struct {
	Seq    uint64 `json:"seq"`
	Cycles uint64 `json:"cycles"`
	WallNS int64  `json:"wallNs"`
	Kind   string `json:"kind"`
	Worker string `json:"worker"`
	Arg1   uint64 `json:"arg1"`
	Arg2   uint64 `json:"arg2"`
}

// ToJSON converts a record to its JSON view.
func ToJSON(r Record) RecordJSON {
	return RecordJSON{
		Seq:    r.Seq,
		Cycles: r.Cycles,
		WallNS: r.WallNS,
		Kind:   r.Kind.String(),
		Worker: TrackName(r.Worker),
		Arg1:   r.Arg1,
		Arg2:   r.Arg2,
	}
}
