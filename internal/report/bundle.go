package report

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"firstaid/internal/ledger"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

// BundleInput is everything that goes into one postmortem bundle.
type BundleInput struct {
	D       *ledger.Diagnosis
	Trace   []trace.Record      // the diagnosis's slice of the execution trace
	Metrics *telemetry.Snapshot // telemetry snapshot of the owning worker
	// StripWall zeroes every wall-clock field and drops wall-derived
	// ("_us") histograms, leaving only deterministic content — the form
	// the byte-identity determinism test compares.
	StripWall bool
}

// BundleFor assembles the bundle input for one diagnosis: its trace slice
// (records emitted between TraceFrom and TraceTo on the owning worker's
// tracks) and the metrics snapshot. trc and snap may be nil.
func BundleFor(d *ledger.Diagnosis, trc *trace.Tracer, snap *telemetry.Snapshot) BundleInput {
	in := BundleInput{D: d, Metrics: snap}
	if trc != nil {
		for _, rec := range trc.Since(d.TraceFrom) {
			if d.TraceTo > 0 && rec.Seq >= d.TraceTo {
				break
			}
			if trace.TrackBelongsTo(rec.Worker, d.Worker) {
				in.Trace = append(in.Trace, rec)
			}
		}
	}
	return in
}

// sanitized returns the input with wall-clock content removed when
// StripWall is set; otherwise it returns the input unchanged.
func (in BundleInput) sanitized() BundleInput {
	if !in.StripWall {
		return in
	}
	out := in
	if in.D != nil {
		d := *in.D
		d.BeginWallNS, d.EndWallNS = 0, 0
		d.RecoverySec, d.ValidationSec = 0, 0
		d.Conditions = append([]ledger.Condition(nil), in.D.Conditions...)
		for i := range d.Conditions {
			d.Conditions[i].WallNS = 0
		}
		d.Path = append([]ledger.Step(nil), in.D.Path...)
		for i := range d.Path {
			d.Path[i].WallNS = 0
		}
		out.D = &d
	}
	out.Trace = append([]trace.Record(nil), in.Trace...)
	for i := range out.Trace {
		out.Trace[i].WallNS = 0
	}
	if in.Metrics != nil {
		m := *in.Metrics
		m.Histograms = make(map[string]telemetry.HistogramSnapshot, len(in.Metrics.Histograms))
		for name, h := range in.Metrics.Histograms {
			if strings.HasSuffix(name, "_us") {
				continue
			}
			m.Histograms[name] = h
		}
		out.Metrics = &m
	}
	return out
}

// BundleArtifacts generates the bundle's file set in its fixed layout:
//
//	REPRO.txt                 — exact firstaid-run command (chaos sources)
//	diagnosis.json            — the full Diagnosis object, timed path included
//	diagnosis.canonical.json  — its mode-invariant projection
//	failure.core, diag.log, mm_trace_orig.log,
//	mm_trace_patched.log, illegal_access.log,
//	report.txt                — the Figure-5 report files
//	trace.txt, trace.json     — the trace slice (text + chrome formats)
//	metrics.json              — telemetry snapshot
func BundleArtifacts(in BundleInput) ([]Artifact, error) {
	in = in.sanitized()
	d := in.D
	if d == nil {
		return nil, fmt.Errorf("bundle: no diagnosis")
	}

	var arts []Artifact
	if d.Repro != "" {
		repro := fmt.Sprintf("# reproduces diagnosis #%d (%s, %s mode) offline:\n%s\n", d.ID, d.Source, d.Mode, d.Repro)
		arts = append(arts, Artifact{"REPRO.txt", []byte(repro)})
	}

	full, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bundle: marshal diagnosis: %w", err)
	}
	arts = append(arts, Artifact{"diagnosis.json", append(full, '\n')})
	canon, err := d.Canonical()
	if err != nil {
		return nil, fmt.Errorf("bundle: canonical diagnosis: %w", err)
	}
	arts = append(arts, Artifact{"diagnosis.canonical.json", append(canon, '\n')})

	arts = append(arts, FromDiagnosis(d).Artifacts()...)

	if len(in.Trace) > 0 {
		var txt, chrome bytes.Buffer
		if err := trace.WriteText(&txt, in.Trace); err != nil {
			return nil, fmt.Errorf("bundle: trace text: %w", err)
		}
		if err := trace.ChromeTrace(&chrome, in.Trace); err != nil {
			return nil, fmt.Errorf("bundle: chrome trace: %w", err)
		}
		arts = append(arts, Artifact{"trace.txt", txt.Bytes()}, Artifact{"trace.json", chrome.Bytes()})
	}
	if in.Metrics != nil {
		mb, err := json.MarshalIndent(in.Metrics, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("bundle: marshal metrics: %w", err)
		}
		arts = append(arts, Artifact{"metrics.json", append(mb, '\n')})
	}
	return arts, nil
}

// WriteBundle writes the postmortem bundle as a deterministic tar.gz:
// fixed member order, zeroed timestamps, fixed mode/ownership, so the
// same diagnosis always produces the same bytes.
func WriteBundle(w io.Writer, in BundleInput) error {
	arts, err := BundleArtifacts(in)
	if err != nil {
		return err
	}
	gz := gzip.NewWriter(w) // zero ModTime in the gzip header: deterministic
	tw := tar.NewWriter(gz)
	for _, a := range arts {
		hdr := &tar.Header{
			Name:    a.Name,
			Mode:    0o644,
			Size:    int64(len(a.Data)),
			ModTime: time.Unix(0, 0),
			Format:  tar.FormatUSTAR,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("bundle: %s: %w", a.Name, err)
		}
		if _, err := tw.Write(a.Data); err != nil {
			return fmt.Errorf("bundle: %s: %w", a.Name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// BundleFileName is the on-disk name of a diagnosis's bundle.
func BundleFileName(id uint64) string { return fmt.Sprintf("diagnosis-%d.tar.gz", id) }

// WriteBundleFile writes the bundle into dir as diagnosis-<id>.tar.gz and
// returns the path.
func WriteBundleFile(dir string, in BundleInput) (string, error) {
	if in.D == nil {
		return "", fmt.Errorf("bundle: no diagnosis")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, BundleFileName(in.D.ID))
	var buf bytes.Buffer
	if err := WriteBundle(&buf, in); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadBundle unpacks a bundle produced by WriteBundle back into its named
// members, for tests and offline inspection.
func ReadBundle(r io.Reader) (map[string][]byte, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	out := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, err
		}
		out[hdr.Name] = data
	}
}
