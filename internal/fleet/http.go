// The HTTP front-end: JSON events in, outcomes out, plus the operational
// surfaces a fleet deployment needs — merged telemetry (JSON or Prometheus
// text), the live patch pool, worker health, and the execution trace
// (Chrome trace-event JSON, text timeline, or a live SSE tail).
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"firstaid/internal/ledger"
	"firstaid/internal/report"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

// maxEventBody bounds POST /events request bodies: an event is a short
// JSON object; anything near a megabyte is a client bug or abuse.
const maxEventBody = 1 << 20

// maxBatchBody bounds POST /events/batch request bodies. The binary
// format costs a few bytes of framing per event, so 8 MiB comfortably
// fits MaxBatchEvents typical events while still bounding a hostile
// client's buffer.
const maxBatchBody = 8 << 20

// Server exposes a Fleet over HTTP:
//
//	POST /events        {"kind":"search","data":"uid=user7","n":7,"src":"c0"}
//	                    → {"worker":2,"seq":41,"failed":false,...,"latencyUs":183}
//	POST /events/batch  binary batch (wire format v1, see batch.go): N events
//	                    in one request, split across workers by dispatch mode
//	                    → {"events":512,"failures":0,...,"workers":[...]}
//	                    413 when body > 8 MiB or count > 65536 (limit echoed);
//	                    400 on any framing fault — all-or-nothing, nothing
//	                    from a rejected batch is ingested
//	GET  /metrics       → merged telemetry snapshot (fleet + every worker);
//	                      ?format=prom (or a text/plain Accept header) selects
//	                      the Prometheus text exposition
//	GET  /trace         → the execution-trace ring; ?format=chrome (trace-event
//	                      JSON) or ?format=text (timeline, the default)
//	GET  /trace/stream  → live SSE tail of the ring (?from=seq, ?max=n)
//	GET  /patches       → the shared patch pool as JSON (patch.Pool format)
//	GET  /healthz       → per-worker readiness: inbox depth, busy state,
//	                      last-event clock, in-flight diagnoses, pool size
//	GET  /diagnoses     → ledger diagnoses (?phase=, ?source=, ?worker=)
//	GET  /diagnoses/stream → live SSE feed of phase transitions
//	                      (?from=cursor resumes, ?max=n bounds)
//	GET  /diagnoses/{id}       → one full diagnosis object
//	GET  /diagnoses/{id}/trace → its trace slice (?format=chrome|text)
//	GET  /diagnoses/{id}/bundle → its postmortem bundle (tar.gz)
type Server struct {
	fleet *Fleet
	mux   *http.ServeMux

	// streamPoll is the SSE poll cadence (settable in tests).
	streamPoll time.Duration
}

// NewServer wraps a fleet in the HTTP front-end.
func NewServer(f *Fleet) *Server {
	s := &Server{fleet: f, mux: http.NewServeMux(), streamPoll: 100 * time.Millisecond}
	s.mux.HandleFunc("POST /events", s.handleEvent)
	s.mux.HandleFunc("POST /events/batch", s.handleEventBatch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /trace", s.handleTrace)
	s.mux.HandleFunc("GET /trace/stream", s.handleTraceStream)
	s.mux.HandleFunc("GET /patches", s.handlePatches)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /diagnoses", s.handleDiagnoses)
	s.mux.HandleFunc("GET /diagnoses/stream", s.handleDiagnosesStream)
	s.mux.HandleFunc("GET /diagnoses/{id}", s.handleDiagnosis)
	s.mux.HandleFunc("GET /diagnoses/{id}/trace", s.handleDiagnosisTrace)
	s.mux.HandleFunc("GET /diagnoses/{id}/bundle", s.handleDiagnosisBundle)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleEvent(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxEventBody)
	dec := json.NewDecoder(r.Body)
	var req Request
	err := dec.Decode(&req)
	if err == nil {
		// One event per request: anything but whitespace after it is
		// rejected, not dropped. Token, unlike More, also sees a stray
		// closing brace or bracket.
		if _, err = dec.Token(); err == nil {
			err = errors.New("trailing data after the event")
		} else if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "event too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad event: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Kind == "" {
		http.Error(w, "bad event: missing kind", http.StatusBadRequest)
		return
	}
	res, err := s.fleet.Do(req)
	if errors.Is(err, ErrClosed) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, res)
}

// handleEventBatch ingests one binary batch. Validation is all-or-nothing:
// the batch is fully decoded — and every event checked — before anything
// is submitted, so a rejected batch leaves no partial ingest behind.
func (s *Server) handleEventBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	buf, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("batch too large: body limit %d bytes", maxBatchBody),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	items, err := DecodeBatch(buf, nil)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrBatchTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad batch: "+err.Error(), status)
		return
	}
	res, err := s.fleet.DoBatch(items)
	if errors.Is(err, ErrClosed) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && wantsPromText(r.Header.Get("Accept")) {
		format = "prom"
	}
	switch format {
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := telemetry.WritePrometheus(w, s.fleet.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case "", "json":
		out, err := s.fleet.Snapshot().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
		w.Write([]byte("\n"))
	default:
		http.Error(w, "unknown format "+strconv.Quote(format)+" (want json or prom)", http.StatusBadRequest)
	}
}

// wantsPromText reports whether an Accept header asks for plain text (the
// Prometheus scraper default) rather than JSON.
func wantsPromText(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "application/json":
			return false
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	writeTrace(w, r, s.fleet.Trace().Snapshot())
}

// writeTrace renders trace records in the ?format= a request asks for:
// chrome (trace-event JSON) or text (the timeline, the default).
func writeTrace(w http.ResponseWriter, r *http.Request, recs []trace.Record) {
	write, ctype := trace.WriteText, "text/plain; charset=utf-8"
	switch format := r.URL.Query().Get("format"); format {
	case "chrome":
		write, ctype = trace.ChromeTrace, "application/json"
	case "", "text":
	default:
		http.Error(w, "unknown format "+strconv.Quote(format)+" (want chrome or text)", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", ctype)
	if err := write(w, recs); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleTraceStream tails the execution-trace ring as server-sent events;
// the cursor is the record's global sequence number.
func (s *Server) handleTraceStream(w http.ResponseWriter, r *http.Request) {
	tr := s.fleet.Trace()
	s.stream(w, r, tr.Emitted(), func(cursor uint64) (recs []any, next uint64) {
		for _, rec := range tr.Since(cursor) {
			recs, cursor = append(recs, trace.ToJSON(rec)), rec.Seq+1
		}
		return recs, cursor
	})
}

func (s *Server) handlePatches(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.fleet.Pool().Save(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.fleet.Health())
}

// handleDiagnoses lists ledger diagnoses, optionally filtered by phase
// (?phase=Succeeded), source program (?source=chaos) and owning worker
// (?worker=2).
func (s *Server) handleDiagnoses(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	flt := ledger.Filter{Worker: ledger.AnyWorker}
	if v := q.Get("phase"); v != "" {
		flt.Phase = ledger.Phase(v)
	}
	flt.Source = q.Get("source")
	if v := q.Get("worker"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad worker: "+err.Error(), http.StatusBadRequest)
			return
		}
		flt.Worker = n
	}
	ds := s.fleet.Ledger().List(flt)
	if ds == nil {
		ds = []*ledger.Diagnosis{}
	}
	writeJSON(w, ds)
}

// diagnosisByPath resolves the {id} path value against the ledger.
func (s *Server) diagnosisByPath(w http.ResponseWriter, r *http.Request) (*ledger.Diagnosis, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad id: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	d, ok := s.fleet.Ledger().Get(id)
	if !ok {
		http.Error(w, "no such diagnosis", http.StatusNotFound)
		return nil, false
	}
	return d, true
}

func (s *Server) handleDiagnosis(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.diagnosisByPath(w, r); ok {
		writeJSON(w, d)
	}
}

// handleDiagnosisTrace renders the diagnosis's slice of the execution
// trace — the records its recovery emitted on the owning worker's tracks.
func (s *Server) handleDiagnosisTrace(w http.ResponseWriter, r *http.Request) {
	d, ok := s.diagnosisByPath(w, r)
	if !ok {
		return
	}
	writeTrace(w, r, report.BundleFor(d, s.fleet.Trace(), nil).Trace)
}

// handleDiagnosisBundle streams the diagnosis's postmortem bundle.
func (s *Server) handleDiagnosisBundle(w http.ResponseWriter, r *http.Request) {
	d, ok := s.diagnosisByPath(w, r)
	if !ok {
		return
	}
	in, ok := s.fleet.BundleInput(d.ID)
	if !ok {
		http.Error(w, "no such diagnosis", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", "attachment; filename="+strconv.Quote(report.BundleFileName(d.ID)))
	if err := report.WriteBundle(w, in); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleDiagnosesStream feeds ledger phase transitions as server-sent
// events, one record per phase change; the cursor is the transition's
// stream position.
func (s *Server) handleDiagnosesStream(w http.ResponseWriter, r *http.Request) {
	ldg := s.fleet.Ledger()
	s.stream(w, r, ldg.TransitionsEmitted(), func(cursor uint64) (recs []any, next uint64) {
		for _, tr := range ldg.TransitionsSince(cursor) {
			recs, cursor = append(recs, tr), tr.Seq+1
		}
		return recs, cursor
	})
}

// stream serves a live tail of /trace/stream or /diagnoses/stream as
// server-sent events, one JSON record per event. Neither the trace ring nor
// the ledger has subscription hooks — their writers stay a lock and a
// store — so the tail polls since(cursor), which returns the records from
// cursor on and the cursor past the last of them, on a ticker. ?from=
// starts the cursor at a stream position (default start: only new
// records); ?max= closes the stream after that many records (0 = until the
// request's context ends: the client disconnects, or the server cancels it
// on shutdown).
func (s *Server) stream(w http.ResponseWriter, r *http.Request, start uint64, since func(cursor uint64) (recs []any, next uint64)) {
	q := r.URL.Query()
	cursor, maxRecs := start, uint64(0)
	for _, p := range []struct {
		name string
		dst  *uint64
	}{{"from", &cursor}, {"max", &maxRecs}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad "+p.name+": "+err.Error(), http.StatusBadRequest)
				return
			}
			*p.dst = n
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ticker := time.NewTicker(s.streamPoll)
	defer ticker.Stop()
	enc := json.NewEncoder(w)
	var sent uint64
	for {
		var recs []any
		recs, cursor = since(cursor)
		for _, rec := range recs {
			if _, err := w.Write([]byte("data: ")); err != nil {
				return
			}
			if err := enc.Encode(rec); err != nil {
				return
			}
			// The JSON encoder already wrote one \n; the blank line ends
			// the SSE event.
			if _, err := w.Write([]byte("\n")); err != nil {
				return
			}
			sent++
			if maxRecs > 0 && sent >= maxRecs {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
