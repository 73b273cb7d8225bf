// Command firstaid-serve runs a fleet of supervised machines behind a TCP
// HTTP front-end: JSON events in, per-event outcomes out. It is the
// deployment shape of the paper's evaluation — several server processes of
// one program running at once, all protected by one central patch pool —
// turned into a single service.
//
// Usage:
//
//	firstaid-serve -app apache -addr :8080 -workers 4
//	firstaid-serve -app squid -pool /var/lib/firstaid/squid.json
//	firstaid-serve -app apache -guard-rate 4096     # sampled guard pages fleet-wide
//	firstaid-serve -app apache -load -clients 8 -events 1000 \
//	    -trigger-clients 2 -triggers 120 -trigger-stagger 400
//	firstaid-serve -app apache -load -batch 256 -compact-log   # batched ingest
//
// Endpoints:
//
//	POST /events        {"kind":"search","data":"uid=user7","src":"c0"}
//	POST /events/batch  length-prefixed binary batch of events (wire format
//	                    v1); one request carries N events, split across
//	                    workers by the dispatch mode
//	GET  /metrics       merged telemetry (fleet + every worker); ?format=prom
//	                    for the Prometheus text exposition
//	GET  /trace         execution-trace ring; ?format=chrome or ?format=text
//	GET  /trace/stream  live SSE tail of trace records
//	GET  /patches       the shared patch pool as JSON
//	GET  /healthz       per-worker readiness: inbox depth, busy state,
//	                    last-event clock, in-flight diagnoses
//	GET  /diagnoses     recovery lifecycle objects from the diagnosis
//	                    ledger; ?phase=, ?source=, ?worker= filter
//	GET  /diagnoses/stream      live SSE feed of phase transitions
//	GET  /diagnoses/{id}        one full diagnosis (conditions + evidence)
//	GET  /diagnoses/{id}/trace  its trace slice; ?format=chrome or text
//	GET  /diagnoses/{id}/bundle its postmortem bundle (tar.gz)
//
// With -pool FILE the shared patch pool is loaded at start and saved
// crash-safely whenever it changes and at exit, so the patches a fleet
// learns outlive a kill -9.
//
// With -load the binary starts its own fleet, drives the built-in
// concurrent load generator against it over a real TCP socket, prints
// throughput and latency percentiles, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/apps"
	"firstaid/internal/core"
	"firstaid/internal/fleet"
	"firstaid/internal/patch"
)

func main() {
	var (
		appName    = flag.String("app", "apache", "application to serve (see firstaid-run -list)")
		addr       = flag.String("addr", "127.0.0.1:8080", "TCP listen address")
		workers    = flag.Int("workers", 4, "supervised machines in the fleet")
		queue      = flag.Int("queue", 64, "per-worker inbox depth")
		dispatch   = flag.String("dispatch", "hash", "request dispatch: hash (sticky by source) or roundrobin")
		poolPath   = flag.String("pool", "", "patch-pool file to load at start, save whenever the pool changes, and save at exit")
		parallel   = flag.Bool("parallel-validation", false, "validate patches on cloned machines in parallel")
		speculate  = flag.Bool("speculate", false, "per worker: race diagnosis hypotheses on COW clones, with a standby clone refreshed at every checkpoint (identical verdicts, fewer simulated cycles; wall time gains only with idle cores, and the standby costs every checkpoint); off by default: hypotheses re-execute serially")
		traceCap   = flag.Int("trace-cap", 0, "execution-trace ring capacity in records (0 = default 64Ki)")
		ledgerCap  = flag.Int("ledger-cap", 0, "diagnosis-ledger ring capacity in entries (0 = default 256)")
		guardRate  = flag.Int("guard-rate", 0, "guard-page sampling per worker: redirect ~1/N of allocations onto guard pages so stray accesses trap at the faulting instruction (0 = off; 4096 is the always-on default)")
		guardForce = flag.String("guard-force", "", "comma-separated call-site substrings to guard-sample on every allocation across the fleet")
		compactLog = flag.Bool("compact-log", false, "bound each worker's rolling replay log: discard the prefix older than its oldest retained checkpoint (live memory stays flat; whole-run offline replay is given up)")

		load           = flag.Bool("load", false, "run the built-in load generator against this fleet, print the report, and exit")
		clients        = flag.Int("clients", 4, "load: concurrent clients")
		events         = flag.Int("events", 500, "load: events per client")
		batch          = flag.Int("batch", 0, "load: send events in binary batches of this size via POST /events/batch (0 or 1 = one JSON request per event)")
		triggerClients = flag.Int("trigger-clients", 1, "load: how many clients carry bug triggers")
		triggers       = flag.String("triggers", "110", "load: comma-separated trigger offsets within a client's workload (empty = clean)")
		stagger        = flag.Int("trigger-stagger", 300, "load: per-client shift of the trigger offsets")
	)
	flag.Parse()

	if _, err := apps.New(*appName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	newApp := func() app.App {
		prog, err := apps.New(*appName)
		if err != nil {
			panic(err) // validated above
		}
		return prog
	}

	mcfg := core.MachineConfig{GuardRate: *guardRate}
	for _, part := range strings.Split(*guardForce, ",") {
		if s := strings.TrimSpace(part); s != "" {
			mcfg.GuardForce = append(mcfg.GuardForce, s)
		}
	}
	cfg := fleet.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Supervisor:     core.Config{ParallelValidation: *parallel, Speculate: *speculate, CompactLog: *compactLog, Machine: mcfg},
		TraceCapacity:  *traceCap,
		LedgerCapacity: *ledgerCap,
	}
	switch *dispatch {
	case "hash":
		cfg.Dispatch = fleet.HashBySource
	case "roundrobin":
		cfg.Dispatch = fleet.RoundRobin
	default:
		fmt.Fprintf(os.Stderr, "unknown -dispatch %q (want hash or roundrobin)\n", *dispatch)
		os.Exit(1)
	}

	if *poolPath != "" {
		switch pool, err := patch.LoadFile(*poolPath); {
		case err == nil:
			cfg.Pool = pool
			fmt.Printf("loaded %d patch(es) from %s\n", pool.Len(), *poolPath)
		case os.IsNotExist(err):
			fmt.Printf("pool file %s not found; starting with an empty pool\n", *poolPath)
		default:
			fmt.Fprintf(os.Stderr, "loading pool %s: %v\n", *poolPath, err)
			os.Exit(1)
		}
	}

	f := fleet.New(func() app.Program { return newApp() }, cfg)
	var saver *poolSaver
	if *poolPath != "" {
		saver = startPoolSaver(f.Pool(), *poolPath)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := newServer(f)
	// Catch SIGINT/SIGTERM before serving: once /healthz can answer ready,
	// a SIGTERM must drain and report, not kill the process.
	var sig chan os.Signal
	if !*load {
		sig = make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("firstaid-serve: %s fleet of %d worker(s) on http://%s (dispatch %s)\n",
		*appName, f.Workers(), ln.Addr(), *dispatch)

	if *load {
		lcfg := fleet.LoadConfig{
			Clients:         *clients,
			EventsPerClient: *events,
			Batch:           *batch,
			TriggerClients:  *triggerClients,
			TriggerStagger:  *stagger,
		}
		if *triggers != "" {
			for _, part := range strings.Split(*triggers, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					fmt.Fprintf(os.Stderr, "bad trigger %q: %v\n", part, err)
					os.Exit(1)
				}
				lcfg.Triggers = append(lcfg.Triggers, v)
			}
		}
		rep, err := fleet.RunLoad("http://"+ln.Addr().String(), newApp, lcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "load generator: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		shutdown(srv, f, saver, *poolPath)
		return
	}

	// Serve until SIGINT/SIGTERM, then drain and report.
	select {
	case s := <-sig:
		fmt.Printf("\n%v: shutting down\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	shutdown(srv, f, saver, *poolPath)
}

// Connection timeouts: a client slower than these to send a request
// header or a whole request, or idle on a keep-alive connection, is
// disconnected. There is no write timeout, which would cut the SSE streams
// (/trace/stream, /diagnoses/stream); the read timeout does not, as
// net/http clears the read deadline once a request is read. Variables only
// so tests can shorten them.
var (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer wraps the fleet's HTTP front-end in a server with the
// connection timeouts set.
func newServer(f *fleet.Fleet) *http.Server {
	return &http.Server{
		Handler:           fleet.NewServer(f),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// poolSaveEvery is how often the pool saver looks for new patches: a
// crash loses at most this much of what the fleet learned.
const poolSaveEvery = 100 * time.Millisecond

// poolSaver persists the shared patch pool while the server runs: every
// poolSaveEvery it saves the pool crash-safely if its generation moved
// since the last save, so learned patches survive a kill -9, not only a
// graceful shutdown.
type poolSaver struct {
	stop, done chan struct{}
}

func startPoolSaver(pool *patch.Pool, path string) *poolSaver {
	s := &poolSaver{stop: make(chan struct{}), done: make(chan struct{})}
	saved := pool.Generation()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(poolSaveEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			// Read the generation before saving: a change made during the
			// save moves it again and is saved on the next tick.
			if gen := pool.Generation(); gen != saved {
				if err := pool.SaveFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "saving pool: %v\n", err)
					continue
				}
				saved = gen
			}
		}
	}()
	return s
}

// Stop ends the saver and waits for a save in progress to finish.
func (s *poolSaver) Stop() {
	close(s.stop)
	<-s.done
}

// shutdown stops accepting traffic, drains the fleet, prints its final
// stats, stops the pool saver (nil without -pool) and persists the patch
// pool one last time.
func shutdown(srv *http.Server, f *fleet.Fleet, saver *poolSaver, poolPath string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)

	st := f.Close()
	fmt.Printf("fleet: %d request(s) across %d worker(s); rerouted %d, blocked %d\n",
		st.Requests, st.Workers, st.Rerouted, st.Blocked)
	fmt.Printf("core: failures %d, recoveries %d, skipped %d, patches made %d, active patches %d\n",
		st.Core.Failures, st.Core.Recoveries, st.Core.Skipped, st.Core.PatchesMade, st.ActivePatches)

	if saver != nil {
		saver.Stop()
	}
	if poolPath != "" {
		if err := f.Pool().SaveFile(poolPath); err != nil {
			fmt.Fprintf(os.Stderr, "saving pool: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("patch pool saved to %s\n", poolPath)
	}
}
