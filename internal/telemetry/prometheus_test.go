package telemetry

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("heap.mallocs").Add(42)
	r.Gauge("fleet.queue").Set(-3)
	h := r.Histogram("ckpt.dirty_pages")
	for _, v := range []uint64{1, 2, 3, 100} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE firstaid_heap_mallocs counter\nfirstaid_heap_mallocs 42\n",
		"# TYPE firstaid_fleet_queue gauge\nfirstaid_fleet_queue -3\n",
		"# TYPE firstaid_ckpt_dirty_pages histogram\n",
		"firstaid_ckpt_dirty_pages_bucket{le=\"+Inf\"} 4\n",
		"firstaid_ckpt_dirty_pages_sum 106\n",
		"firstaid_ckpt_dirty_pages_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Buckets must be cumulative and ordered by their numeric bound.
	lastLE := int64(-1)
	var lastCum uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "firstaid_ckpt_dirty_pages_bucket{le=\"") ||
			strings.Contains(line, `le="+Inf"`) {
			continue
		}
		rest := strings.TrimPrefix(line, "firstaid_ckpt_dirty_pages_bucket{le=\"")
		q := strings.Index(rest, `"`)
		le, err := strconv.ParseInt(rest[:q], 10, 64)
		if err != nil {
			t.Fatalf("unparseable le in %q: %v", line, err)
		}
		cum, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable count in %q: %v", line, err)
		}
		if le <= lastLE {
			t.Fatalf("buckets out of order at %q", line)
		}
		if cum < lastCum {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		lastLE, lastCum = le, cum
	}
	if lastLE < 0 {
		t.Fatal("no finite histogram buckets in the exposition")
	}
}

func TestPrometheusBuildInfoAndUptime(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, NewRegistry().Snapshot()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE firstaid_build_info gauge\n",
		`firstaid_build_info{version="`,
		`goversion="` + runtime.Version() + `"} 1`,
		"# TYPE firstaid_uptime_seconds gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The identity series lead the exposition so scrapers always see them,
	// even on an empty snapshot.
	if !strings.HasPrefix(out, "# TYPE firstaid_build_info gauge\n") {
		t.Errorf("build_info not first:\n%s", out)
	}

	// uptime must be a parseable non-negative float that advances.
	var uptime float64
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "firstaid_uptime_seconds "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable uptime %q: %v", line, err)
			}
			uptime = f
		}
	}
	if uptime < 0 {
		t.Fatalf("uptime = %g, want >= 0", uptime)
	}
	time.Sleep(2 * time.Millisecond)
	buf.Reset()
	if err := WritePrometheus(&buf, NewRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	var later float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "firstaid_uptime_seconds "); ok {
			later, _ = strconv.ParseFloat(v, 64)
		}
	}
	if later <= uptime {
		t.Fatalf("uptime did not advance: %g then %g", uptime, later)
	}
}
