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
// Every submission is a batch: a JSON request is a batch of one. Dispatch
// splits a batch into per-worker shares, round-robin or sticky-by-source,
// and queues each share on its worker's one bounded inbox, which the worker
// drains in order. Degradation is explicit and lossless: while a worker is
// mid-recovery its inbox fills; a round-robin share re-routes to the next
// worker with space, a sticky share queues (preserving per-source order),
// and when every inbox a share may use is full the submitter blocks —
// backpressure, never a silent drop. Every accepted request gets exactly
// one result.
package fleet

import (
	"errors"
	"sync"
	"sync/atomic"

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
	// share to the next worker with space.
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
	Rerouted  uint64     // shares placed on a non-primary worker
	Blocked   uint64     // shares that found every inbox they may use full
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
	inbox     chan batchJob
	reg       *telemetry.Registry
	processed atomic.Int64
	busy      atomic.Bool
	started   atomic.Bool   // the serving goroutine is running
	lastClock atomic.Uint64 // simulated clock after the last ingested event
	stats     core.Stats    // final, set when the inbox drains after Close
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
		w := &worker{id: i, inbox: make(chan batchJob, cfg.QueueDepth), reg: wreg}
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
// Shares are served in inbox order, so the worker records each source's
// requests in the order the fleet accepted them.
func (w *worker) loop(f *Fleet) {
	defer f.wg.Done()
	w.started.Store(true)
	for job := range w.inbox {
		w.serveBatch(f, job)
	}
	w.stats = w.sup.Finish()
}

// Do submits one request as a batch of one and waits for its Result.
func (f *Fleet) Do(req Request) (Result, error) {
	br, err := f.DoBatch([]BatchItem{{
		Kind: []byte(req.Kind), Data: []byte(req.Data), Src: []byte(req.Src), N: req.N,
	}})
	if err != nil {
		return Result{}, err
	}
	wb := br.Workers[0]
	return Result{
		Worker:    wb.Worker,
		Seq:       wb.First,
		Failed:    wb.Failures > 0,
		Recovered: wb.Recovered > 0,
		Skipped:   wb.Skipped > 0,
		Rerouted:  wb.Rerouted,
		LatencyUS: br.LatencyUS,
	}, nil
}

// place queues one share on a worker inbox by the dispatch mode; see the
// package comment for the degradation rules. A sticky share only ever
// tries its primary (re-routing would split one source's recorded stream
// across machines); a round-robin share tries every worker from its
// primary on. When none has space, the submitter blocks on the primary.
func (f *Fleet) place(primary int, job batchJob) {
	tries := 1
	if f.cfg.Dispatch == RoundRobin {
		tries = len(f.workers)
	}
	for i := 0; i < tries; i++ {
		w := f.workers[(primary+i)%len(f.workers)]
		job.rerouted = i > 0
		select {
		case w.inbox <- job:
			if job.rerouted {
				f.met.rerouted.Inc()
			}
			f.em.Emit(trace.KDispatch, uint64(w.id), uint64(len(w.inbox)))
			return
		default:
		}
	}
	job.rerouted = false
	f.met.blocked.Inc()
	w := f.workers[primary]
	w.inbox <- job
	f.em.Emit(trace.KDispatch, uint64(w.id), uint64(len(w.inbox)))
}

// FNV-1a, inlined so the dispatch hot path neither allocates a hasher nor
// copies the key (hash/fnv would do both per request).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv32aBytes(key []byte) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range key {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return h
}

// workerForKey returns the sticky worker index for an item: the hash of
// its source, or of its data when the source is empty.
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
	Inbox     int   `json:"inbox"` // queued shares (degradation signal)
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
		if depth >= f.cfg.QueueDepth {
			h.Status = "degraded"
		}
		wh := WorkerHealth{
			ID:             w.id,
			Inbox:          depth,
			Busy:           w.busy.Load(),
			Processed:      w.processed.Load(),
			Ready:          w.started.Load() && depth < f.cfg.QueueDepth,
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
