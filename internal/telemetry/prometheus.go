// Prometheus text exposition (version 0.0.4) for snapshots: the format
// every mainstream scraper speaks, emitted straight from a Snapshot so the
// fleet's /metrics endpoint can serve either JSON (dashboards, tests) or
// prom text (scrapers) from the same data.
//
// Instrument names are mapped to the prometheus grammar: dots become
// underscores and everything gets a "firstaid_" prefix, so "ckpt.taken"
// exposes as "firstaid_ckpt_taken". Power-of-two histogram buckets become
// cumulative le-labelled buckets with their inclusive upper bounds as the
// thresholds.

package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// processStart anchors firstaid_uptime_seconds; set once at init so every
// exposition from this process agrees.
var processStart = time.Now()

// buildVersion resolves the module version stamped into the binary, or
// "dev" for unstamped builds (go test, plain go build of a dirty tree).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}

// writeBuildInfo emits the standard process-identity series: a build_info
// gauge carrying version labels (value always 1, the prometheus idiom for
// label-only metrics) and the process uptime.
func writeBuildInfo(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"# TYPE firstaid_build_info gauge\nfirstaid_build_info{version=%q,goversion=%q} 1\n"+
			"# TYPE firstaid_uptime_seconds gauge\nfirstaid_uptime_seconds %g\n",
		buildVersion(), runtime.Version(), time.Since(processStart).Seconds())
	return err
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, prefixed with the process-identity series (build info, uptime).
func WritePrometheus(w io.Writer, snap Snapshot) error {
	if err := writeBuildInfo(w); err != nil {
		return err
	}
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, snap.Gauges[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := writePromHistogram(w, promName(name), snap.Histograms[name]); err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, pn string, hs HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	// The snapshot keeps sparse buckets keyed by their decimal upper
	// bound; prometheus wants every bucket cumulative and ordered by le.
	type bound struct {
		le string
		v  uint64
		n  uint64
	}
	bounds := make([]bound, 0, len(hs.Buckets))
	for le, n := range hs.Buckets {
		v, err := strconv.ParseUint(le, 10, 64)
		if err != nil {
			continue // not a decimal label; skip rather than mis-order
		}
		bounds = append(bounds, bound{le: le, v: v, n: n})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].v < bounds[j].v })
	var cum uint64
	for _, b := range bounds {
		cum += b.n
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", pn, b.le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		pn, hs.Count, pn, hs.Sum, pn, hs.Count)
	return err
}

// promName maps an instrument name onto the prometheus metric grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*) with the firstaid_ namespace prefix.
func promName(name string) string {
	out := make([]byte, 0, len(name)+9)
	out = append(out, "firstaid_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
