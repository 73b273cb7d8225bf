// Package fleet runs N supervised machines of one program as a single
// service — the deployment shape of the paper's evaluation, where several
// server processes (Apache, Squid) run at once and share one central patch
// pool.
//
// Each worker owns a streaming Supervisor: requests are recorded into the
// worker's rolling replay log before execution (the paper's network input
// recorder), so checkpoint/rollback/diagnosis behave exactly as in offline
// runs and every worker's live traffic is replayable afterwards. All
// workers bind the same patch.Pool; the first worker to diagnose a bug
// immunizes the rest live — their bindings observe the pool's generation
// counter on the allocation fast path and pick the new patches up before
// their own first trigger.
//
// Dispatch is round-robin or sticky-by-source over bounded per-worker
// inboxes. Degradation is explicit and lossless: while a worker is
// mid-recovery its inbox fills; round-robin traffic re-routes to workers
// with space, sticky traffic queues (preserving per-source order), and
// when every inbox is full the submitter blocks — backpressure, never a
// silent drop. Every accepted request gets exactly one Result.
package fleet

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/core"
	"firstaid/internal/ledger"
	"firstaid/internal/patch"
	"firstaid/internal/replay"
	"firstaid/internal/report"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

// Dispatch selects how requests map to workers.
type Dispatch int

const (
	// RoundRobin spreads requests evenly; a full inbox re-routes the
	// request to the next worker with space.
	RoundRobin Dispatch = iota
	// HashBySource pins each request source to one worker (sticky
	// load-balancing), preserving per-source event order; a full inbox
	// queues (blocks) rather than re-routes, because re-routing would
	// interleave one source's stream across recorders.
	HashBySource
)

// Config tunes a fleet.
type Config struct {
	// Workers is the number of supervised machines (default 4).
	Workers int
	// QueueDepth bounds each worker's inbox (default 64). A full inbox is
	// the degradation signal: re-route (round-robin) or block (sticky).
	QueueDepth int
	// Dispatch selects the request→worker mapping.
	Dispatch Dispatch
	// Supervisor is the per-worker configuration template. Pool and
	// Machine.Metrics are overridden: every worker shares the fleet pool
	// and gets a telemetry registry of its own.
	Supervisor core.Config
	// Pool is the shared patch pool; a fresh one (keyed by the program
	// name) is created when nil. Passing a loaded pool deploys previously
	// diagnosed patches to every worker from the first request.
	Pool *patch.Pool
	// Metrics is the fleet-level registry (submission counters, latency
	// histograms). A fresh registry is created when nil: fleet telemetry
	// is always on — it is the service's /metrics surface.
	Metrics *telemetry.Registry
	// Trace is the fleet's execution tracer. A fresh ring (TraceCapacity
	// records) is created when nil: like fleet metrics, the trace is
	// always on — it is the service's /trace surface. Every worker
	// machine emits onto it (worker index = trace track) and the
	// front-end records dispatch decisions on the fleet track.
	Trace *trace.Tracer
	// TraceCapacity sizes the ring when Trace is nil (default
	// trace.DefaultCapacity).
	TraceCapacity int
	// Ledger is the shared diagnosis ledger all workers write through. A
	// fresh one (LedgerCapacity entries) is created when nil: the ledger
	// is always on — it is the service's /diagnoses surface.
	Ledger *ledger.Ledger
	// LedgerCapacity sizes the ledger ring when Ledger is nil (default
	// ledger.DefaultCapacity).
	LedgerCapacity int
}

// Request is one unit of live traffic: a replay event plus the dispatch
// source key.
type Request struct {
	Kind string `json:"kind"`
	Data string `json:"data,omitempty"`
	N    int    `json:"n,omitempty"`
	// Src is the dispatch key under HashBySource (a client/connection
	// id); empty falls back to Data.
	Src string `json:"src,omitempty"`
}

// Result is the outcome of one request.
type Result struct {
	Worker    int   `json:"worker"`
	Seq       int   `json:"seq"`
	Failed    bool  `json:"failed"`
	Recovered bool  `json:"recovered"`
	Skipped   bool  `json:"skipped"`
	Rerouted  bool  `json:"rerouted"`
	LatencyUS int64 `json:"latencyUs"`
}

// Stats summarises a closed fleet.
type Stats struct {
	Workers   int
	Requests  uint64     // completed requests
	Rerouted  uint64     // requests placed on a non-primary worker
	Blocked   uint64     // submissions that found every (or the sticky) inbox full
	Core      core.Stats // merged across workers
	PerWorker []core.Stats
	// ActivePatches is the shared pool's non-revoked patch count.
	ActivePatches int
}

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("fleet: closed")

// Fleet is a worker pool of supervised machines for one program.
type Fleet struct {
	cfg     Config
	pool    *patch.Pool
	workers []*worker
	reg     *telemetry.Registry
	met     fleetMetrics
	trc     *trace.Tracer
	ldg     *ledger.Ledger
	em      trace.Emitter // front-end emitter on the fleet track

	rr atomic.Uint64

	// closeMu serializes submissions against Close: submissions hold the
	// read side across dispatch (including a blocking send), so Close's
	// write acquisition proves no send can race the inbox close.
	closeMu sync.RWMutex
	closed  bool

	wg        sync.WaitGroup
	closeOnce sync.Once
	final     Stats
}

type fleetMetrics struct {
	submitted  *telemetry.Counter
	completed  *telemetry.Counter
	rerouted   *telemetry.Counter
	blocked    *telemetry.Counter
	failures   *telemetry.Counter
	recoveries *telemetry.Counter
	skipped    *telemetry.Counter
	latencyUS  *telemetry.Histogram // submission → result, the client view
	ingestUS   *telemetry.Histogram // supervisor time alone
}

type worker struct {
	id        int
	sup       *core.Supervisor
	inbox     chan *request
	batches   chan batchJob
	reg       *telemetry.Registry
	processed atomic.Int64
	busy      atomic.Bool
	started   atomic.Bool   // the serving goroutine is running
	lastClock atomic.Uint64 // simulated clock after the last ingested event
	stats     core.Stats    // final, set when the inbox drains after Close
}

type request struct {
	req      Request
	rerouted bool
	enq      time.Time
	done     chan Result
}

// New builds and starts a fleet. newProg is called once per worker so each
// machine gets its own program instance.
func New(newProg func() app.Program, cfg Config) *Fleet {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.New(cfg.TraceCapacity)
	}
	if cfg.Ledger == nil {
		cfg.Ledger = ledger.New(cfg.LedgerCapacity)
	}
	f := &Fleet{cfg: cfg, pool: cfg.Pool, reg: cfg.Metrics, trc: cfg.Trace, ldg: cfg.Ledger}
	f.em = f.trc.Emitter(trace.FleetTrack, nil)
	f.met = fleetMetrics{
		submitted:  f.reg.Counter("fleet.submitted"),
		completed:  f.reg.Counter("fleet.completed"),
		rerouted:   f.reg.Counter("fleet.rerouted"),
		blocked:    f.reg.Counter("fleet.blocked"),
		failures:   f.reg.Counter("fleet.failures"),
		recoveries: f.reg.Counter("fleet.recoveries"),
		skipped:    f.reg.Counter("fleet.skipped"),
		latencyUS:  f.reg.Histogram("fleet.latency_us"),
		ingestUS:   f.reg.Histogram("fleet.ingest_us"),
	}
	for i := 0; i < cfg.Workers; i++ {
		prog := newProg()
		if f.pool == nil {
			f.pool = patch.NewPool(prog.Name())
		}
		scfg := cfg.Supervisor
		scfg.Pool = f.pool
		scfg.Ledger = f.ldg
		wreg := telemetry.NewRegistry()
		scfg.Machine.Metrics = wreg
		scfg.Machine.Trace = f.trc
		scfg.Machine.TraceWorker = i
		w := &worker{
			id:      i,
			inbox:   make(chan *request, cfg.QueueDepth),
			batches: make(chan batchJob, cfg.QueueDepth),
			reg:     wreg,
		}
		w.sup = core.NewSupervisor(prog, replay.NewLog(), scfg)
		f.workers = append(f.workers, w)
	}
	// The shared pool's mutation records go on the fleet track: any worker
	// may add or revoke, so no single worker's emitter can claim them.
	f.pool.SetTracer(f.em)
	for _, w := range f.workers {
		f.wg.Add(1)
		go w.loop(f)
	}
	return f
}

// loop is a worker's serving goroutine: it owns the supervisor exclusively,
// so all machine state stays single-threaded; the only cross-worker
// contact is the locked patch pool and the atomic telemetry instruments.
// Per-event and batch submissions drain from separate bounded inboxes
// (batches would otherwise starve behind a deep per-event queue and vice
// versa); within each inbox, order is preserved.
func (w *worker) loop(f *Fleet) {
	defer f.wg.Done()
	w.started.Store(true)
	inbox, batches := w.inbox, w.batches
	for inbox != nil || batches != nil {
		select {
		case rq, ok := <-inbox:
			if !ok {
				inbox = nil
				continue
			}
			w.serve(f, rq)
		case bq, ok := <-batches:
			if !ok {
				batches = nil
				continue
			}
			w.serveBatch(f, bq)
		}
	}
	w.stats = w.sup.Finish()
}

// serve ingests one per-event submission on the worker goroutine.
func (w *worker) serve(f *Fleet, rq *request) {
	w.busy.Store(true)
	t0 := time.Now()
	ir := w.sup.Ingest(rq.req.Kind, rq.req.Data, rq.req.N)
	ingest := time.Since(t0)
	w.lastClock.Store(w.sup.M.SimNow())
	w.busy.Store(false)
	w.processed.Add(1)

	res := Result{
		Worker:    w.id,
		Seq:       ir.Seq,
		Failed:    ir.Failed,
		Recovered: ir.Recovered,
		Skipped:   ir.Skipped,
		Rerouted:  rq.rerouted,
		LatencyUS: time.Since(rq.enq).Microseconds(),
	}
	f.met.ingestUS.Observe(uint64(ingest.Microseconds()))
	f.met.latencyUS.Observe(uint64(res.LatencyUS))
	f.met.completed.Inc()
	f.met.failures.Add(uint64(ir.Failures))
	if ir.Recovered {
		f.met.recoveries.Inc()
	}
	if ir.Skipped {
		f.met.skipped.Inc()
	}
	rq.done <- res
}

// Go submits a request and returns a channel carrying its Result (buffered:
// the worker never blocks on delivery, the caller may collect late). The
// submission itself may block when inboxes are full — that is the fleet's
// backpressure; it never drops.
func (f *Fleet) Go(req Request) (<-chan Result, error) {
	f.closeMu.RLock()
	defer f.closeMu.RUnlock()
	if f.closed {
		return nil, ErrClosed
	}
	rq := &request{req: req, enq: time.Now(), done: make(chan Result, 1)}
	f.met.submitted.Inc()
	f.dispatch(rq)
	return rq.done, nil
}

// Do submits a request and waits for its Result.
func (f *Fleet) Do(req Request) (Result, error) {
	ch, err := f.Go(req)
	if err != nil {
		return Result{}, err
	}
	return <-ch, nil
}

// dispatch places the request on a worker inbox according to the dispatch
// mode. See the package comment for the degradation rules.
func (f *Fleet) dispatch(rq *request) {
	n := len(f.workers)
	switch f.cfg.Dispatch {
	case HashBySource:
		w := f.workers[f.workerFor(rq.req)]
		select {
		case w.inbox <- rq:
			f.em.Emit(trace.KDispatch, uint64(w.id), uint64(len(w.inbox)))
		default:
			// Sticky traffic queues on its worker — re-routing would
			// split one source's recorded stream across machines.
			f.met.blocked.Inc()
			w.inbox <- rq
			f.em.Emit(trace.KDispatch, uint64(w.id), uint64(len(w.inbox)))
		}
	default: // RoundRobin
		start := int(f.rr.Add(1)-1) % n
		for i := 0; i < n; i++ {
			w := f.workers[(start+i)%n]
			// Flag before the send attempt: once the send succeeds the
			// worker owns rq, and the channel gives the write its
			// happens-before edge.
			rq.rerouted = i > 0
			select {
			case w.inbox <- rq:
				if i > 0 {
					f.met.rerouted.Inc()
				}
				f.em.Emit(trace.KDispatch, uint64(w.id), uint64(len(w.inbox)))
				return
			default:
			}
		}
		// Every inbox full: block on the primary — backpressure.
		rq.rerouted = false
		f.met.blocked.Inc()
		f.workers[start].inbox <- rq
		f.em.Emit(trace.KDispatch, uint64(start), uint64(len(f.workers[start].inbox)))
	}
}

// FNV-1a, inlined so the dispatch hot path neither allocates a hasher nor
// copies the key (hash/fnv would do both per request).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv32a(key string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return h
}

func fnv32aBytes(key []byte) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range key {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return h
}

// workerFor returns the sticky worker index for a request.
func (f *Fleet) workerFor(req Request) int {
	key := req.Src
	if key == "" {
		key = req.Data
	}
	return int(fnv32a(key) % uint32(len(f.workers)))
}

// workerForKey is workerFor over a decoded batch item's byte views; the
// same hash over the same key bytes, so a source's batched and per-event
// traffic land on the same worker.
func (f *Fleet) workerForKey(src, data []byte) int {
	key := src
	if len(key) == 0 {
		key = data
	}
	return int(fnv32aBytes(key) % uint32(len(f.workers)))
}

// Close stops accepting requests, drains every inbox, joins the workers and
// returns the merged fleet statistics. Idempotent; later calls return the
// same stats.
func (f *Fleet) Close() Stats {
	f.closeOnce.Do(func() {
		f.closeMu.Lock()
		f.closed = true
		f.closeMu.Unlock()
		for _, w := range f.workers {
			close(w.inbox)
			close(w.batches)
		}
		f.wg.Wait()

		st := Stats{Workers: len(f.workers)}
		for _, w := range f.workers {
			st.PerWorker = append(st.PerWorker, w.stats)
			st.Core.Events += w.stats.Events
			st.Core.Failures += w.stats.Failures
			st.Core.Recoveries += w.stats.Recoveries
			st.Core.Skipped += w.stats.Skipped
			st.Core.PatchesMade += w.stats.PatchesMade
			st.Core.SimSeconds += w.stats.SimSeconds
		}
		st.Requests = f.met.completed.Value()
		st.Rerouted = f.met.rerouted.Value()
		st.Blocked = f.met.blocked.Value()
		st.ActivePatches = len(f.pool.Active())
		f.final = st
	})
	return f.final
}

// Pool returns the shared patch pool (for persistence and inspection).
func (f *Fleet) Pool() *patch.Pool { return f.pool }

// Trace returns the fleet's execution-trace ring (never nil).
func (f *Fleet) Trace() *trace.Tracer { return f.trc }

// Ledger returns the shared diagnosis ledger (never nil).
func (f *Fleet) Ledger() *ledger.Ledger { return f.ldg }

// BundleInput assembles the postmortem-bundle input for one diagnosis: its
// trace slice from the fleet ring and the owning worker's telemetry
// snapshot. Safe while the fleet is serving.
func (f *Fleet) BundleInput(id uint64) (report.BundleInput, bool) {
	d, ok := f.ldg.Get(id)
	if !ok {
		return report.BundleInput{}, false
	}
	var snap telemetry.Snapshot
	if d.Worker >= 0 && d.Worker < len(f.workers) {
		snap = telemetry.MergedSnapshot(f.workers[d.Worker].reg)
	} else {
		snap = f.Snapshot()
	}
	return report.BundleFor(d, f.trc, &snap), true
}

// Workers returns the fleet size.
func (f *Fleet) Workers() int { return len(f.workers) }

// Snapshot merges the fleet registry and every worker registry into one
// telemetry view — counters and histograms add. Safe while the fleet is
// serving.
func (f *Fleet) Snapshot() telemetry.Snapshot {
	regs := make([]*telemetry.Registry, 0, len(f.workers)+1)
	regs = append(regs, f.reg)
	for _, w := range f.workers {
		regs = append(regs, w.reg)
	}
	return telemetry.MergedSnapshot(regs...)
}

// RecordedLog returns a rewound copy of worker i's recorded event stream —
// the replayable capture of the live traffic it served. Only valid after
// Close: while serving, the recorder belongs to the worker goroutine.
func (f *Fleet) RecordedLog(i int) *replay.Log {
	l := f.workers[i].sup.Log().Clone()
	l.SetCursor(0)
	return l
}

// WorkerHealth is one worker's live state.
type WorkerHealth struct {
	ID        int   `json:"id"`
	Inbox     int   `json:"inbox"`   // queued requests (degradation signal)
	Batches   int   `json:"batches"` // queued batch jobs
	Busy      bool  `json:"busy"`
	Processed int64 `json:"processed"`
	// Ready: the serving goroutine is running and the inbox has spare
	// capacity — the worker can accept a request without queuing behind a
	// full inbox. The fleet e2e gates on every worker being ready.
	Ready bool `json:"ready"`
	// LastEventClock is the simulated clock after the worker's most
	// recently ingested event (0 until it serves one).
	LastEventClock uint64 `json:"lastEventClock"`
	// InFlight counts this worker's open (non-terminal) ledger diagnoses.
	InFlight int `json:"inFlight"`
}

// Health is the /healthz view.
type Health struct {
	Status        string         `json:"status"` // "ok" or "degraded"
	Ready         bool           `json:"ready"`  // every worker is ready
	Workers       []WorkerHealth `json:"workers"`
	QueueDepth    int            `json:"queueDepth"`
	ActivePatches int            `json:"activePatches"`
	InFlight      int            `json:"inFlight"` // open diagnoses, fleet-wide
}

// Health reports per-worker readiness — queue depth, last-event clock, and
// the in-flight diagnosis count from the ledger — plus the shared pool
// size. The fleet is "degraded" while any inbox is full (a worker is
// mid-recovery or overloaded and traffic is being re-routed, queued or
// blocked), and "ready" once every serving goroutine is running with inbox
// space to spare.
func (f *Fleet) Health() Health {
	h := Health{Status: "ok", Ready: true, QueueDepth: f.cfg.QueueDepth, ActivePatches: len(f.pool.Active())}
	for _, w := range f.workers {
		depth := len(w.inbox)
		bdepth := len(w.batches)
		if depth >= f.cfg.QueueDepth || bdepth >= f.cfg.QueueDepth {
			h.Status = "degraded"
		}
		wh := WorkerHealth{
			ID:             w.id,
			Inbox:          depth,
			Batches:        bdepth,
			Busy:           w.busy.Load(),
			Processed:      w.processed.Load(),
			Ready:          w.started.Load() && depth < f.cfg.QueueDepth && bdepth < f.cfg.QueueDepth,
			LastEventClock: w.lastClock.Load(),
			InFlight:       f.ldg.InFlight(w.id),
		}
		if !wh.Ready {
			h.Ready = false
		}
		h.InFlight += wh.InFlight
		h.Workers = append(h.Workers, wh)
	}
	return h
}
