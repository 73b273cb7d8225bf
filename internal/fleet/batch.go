// Batched ingest: the one ingest path of the fleet. Clients pack N events
// into one length-prefixed binary request (POST /events/batch); the
// front-end decodes it zero-copy — every field is a byte-slice view into
// the request body — splits it by dispatch mode into per-worker shares,
// and each worker records and executes its share through
// core.IngestBatch's arena-backed, fence-ordered path. A JSON POST /events
// is a batch of one on the same path (Fleet.Do). Telemetry, trace and
// channel traffic are amortized to once per share, so the steady-state
// cost of an event is its decode bytes, a memcpy into the log arena, and
// its execution — no allocations, no JSON, no per-event channel
// operations.
package fleet

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"firstaid/internal/replay"
)

// Batch wire format v1, versioned alongside the chaos v2 scenario codec.
// All integers are unsigned varints (binary.Uvarint) except N, a signed
// varint (binary.Varint):
//
//	magic   "FAB" 0x01                 (4 bytes)
//	count   uvarint                    events in the batch
//	event   × count:
//	  kindLen uvarint, kind bytes      handler selector (required, non-empty)
//	  dataLen uvarint, data bytes      payload
//	  srcLen  uvarint, src bytes       dispatch key (HashBySource)
//	  n       varint                   numeric argument
//
// Nothing may follow the last event: trailing bytes mean a corrupt or
// mis-framed request, and the whole batch is rejected (all-or-nothing).
//
// The varints are not canonical: an overlong encoding (0x80 0x00 for 0)
// decodes like the minimal one, so one batch has many valid frames. A
// frame's identity is its decoded items; never hash, deduplicate or
// compare frame bytes.
var batchMagic = [4]byte{'F', 'A', 'B', 0x01}

// MaxBatchEvents bounds the events one wire batch may carry; a count
// beyond it is rejected before any per-event work.
const MaxBatchEvents = 65536

// ErrBatchTooLarge reports a batch whose declared event count exceeds
// MaxBatchEvents (the body-size bound is enforced separately by the HTTP
// front-end).
var ErrBatchTooLarge = errors.New("fleet: batch exceeds event limit")

// BatchItem is one event of a decoded wire batch: Request with byte-slice
// views (into the wire buffer) instead of strings. The views are only
// valid while the buffer is; everything that outlives the request copies
// what it keeps (replay interning, the Src hash is consumed in place).
type BatchItem struct {
	Kind []byte
	Data []byte
	Src  []byte
	N    int
}

// AppendBatch appends the wire form of items to dst and returns the
// extended slice.
func AppendBatch(dst []byte, items []BatchItem) []byte {
	dst = append(dst, batchMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for i := range items {
		it := &items[i]
		dst = binary.AppendUvarint(dst, uint64(len(it.Kind)))
		dst = append(dst, it.Kind...)
		dst = binary.AppendUvarint(dst, uint64(len(it.Data)))
		dst = append(dst, it.Data...)
		dst = binary.AppendUvarint(dst, uint64(len(it.Src)))
		dst = append(dst, it.Src...)
		dst = binary.AppendVarint(dst, int64(it.N))
	}
	return dst
}

// AppendRequests is AppendBatch for Request values — the client-side
// encoder (load generator, tests) that skips building BatchItems.
func AppendRequests(dst []byte, reqs []Request) []byte {
	dst = append(dst, batchMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	for i := range reqs {
		rq := &reqs[i]
		dst = binary.AppendUvarint(dst, uint64(len(rq.Kind)))
		dst = append(dst, rq.Kind...)
		dst = binary.AppendUvarint(dst, uint64(len(rq.Data)))
		dst = append(dst, rq.Data...)
		dst = binary.AppendUvarint(dst, uint64(len(rq.Src)))
		dst = append(dst, rq.Src...)
		dst = binary.AppendVarint(dst, int64(rq.N))
	}
	return dst
}

// DecodeBatch parses a wire batch, appending the decoded items to dst
// (pass nil, or a recycled slice to avoid the allocation). The items'
// byte fields alias buf. Decoding is strict and all-or-nothing: any
// framing fault — bad magic, a length running past the buffer, a missing
// kind, trailing bytes — fails the whole batch.
func DecodeBatch(buf []byte, dst []BatchItem) ([]BatchItem, error) {
	if len(buf) < len(batchMagic) || [4]byte(buf[:4]) != batchMagic {
		return dst, errors.New("fleet: bad batch magic")
	}
	rest := buf[4:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return dst, errors.New("fleet: bad batch count")
	}
	if count > MaxBatchEvents {
		return dst, fmt.Errorf("%w: %d events, limit %d", ErrBatchTooLarge, count, MaxBatchEvents)
	}
	rest = rest[n:]
	take := func() ([]byte, bool) {
		l, n := binary.Uvarint(rest)
		if n <= 0 || l > uint64(len(rest)-n) {
			return nil, false
		}
		b := rest[n : n+int(l)]
		rest = rest[n+int(l):]
		return b, true
	}
	for i := uint64(0); i < count; i++ {
		var it BatchItem
		var ok bool
		if it.Kind, ok = take(); !ok || len(it.Kind) == 0 {
			return dst, fmt.Errorf("fleet: batch event %d: bad kind", i)
		}
		if it.Data, ok = take(); !ok {
			return dst, fmt.Errorf("fleet: batch event %d: bad data", i)
		}
		if it.Src, ok = take(); !ok {
			return dst, fmt.Errorf("fleet: batch event %d: bad src", i)
		}
		v, n := binary.Varint(rest)
		if n <= 0 {
			return dst, fmt.Errorf("fleet: batch event %d: bad n", i)
		}
		rest = rest[n:]
		it.N = int(v)
		dst = append(dst, it)
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("fleet: %d trailing bytes after batch", len(rest))
	}
	return dst, nil
}

// WorkerBatch is one worker's share of a batch outcome.
type WorkerBatch struct {
	Worker    int  `json:"worker"`
	First     int  `json:"first"`  // sequence of the share's first event in the worker's log
	Events    int  `json:"events"` // events in the share
	Failures  int  `json:"failures"`
	Recovered int  `json:"recovered"` // recovery cycles completed
	Skipped   int  `json:"skipped"`
	Rerouted  bool `json:"rerouted,omitempty"` // served off its primary worker
}

// BatchResult is the outcome of one batch: aggregate counts plus the
// per-worker shares, ordered by worker index (a worker that took a
// re-routed share besides its own appears twice; workers with no share
// are omitted).
type BatchResult struct {
	Events    int           `json:"events"`
	Failures  int           `json:"failures"`
	Recovered int           `json:"recovered"`
	Skipped   int           `json:"skipped"`
	LatencyUS int64         `json:"latencyUs"`
	Workers   []WorkerBatch `json:"workers,omitempty"`
}

// batchJob is one worker's share in flight: the items to ingest, whether
// it was re-routed off its primary, and the channel the outcome comes back
// on (sized for the whole batch's shares, so the worker's send never
// blocks).
type batchJob struct {
	items    []replay.Item
	rerouted bool
	out      chan<- WorkerBatch
}

// batchScratch recycles DoBatch's fan-out state across calls.
type batchScratch struct {
	per [][]replay.Item // per-worker split, indexed by primary worker
	out chan WorkerBatch
}

var scratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// DoBatch submits a decoded batch and waits for every event to resolve.
// Items are split by the dispatch mode — HashBySource pins each item to
// its source's sticky worker, preserving per-source order; RoundRobin
// deals contiguous chunks starting at the rotor — and each non-empty
// share is placed on an inbox (see place) and ingested by its worker as
// one unit.
func (f *Fleet) DoBatch(items []BatchItem) (BatchResult, error) {
	f.closeMu.RLock()
	defer f.closeMu.RUnlock()
	if f.closed {
		return BatchResult{}, ErrClosed
	}
	res := BatchResult{Events: len(items)}
	if len(items) == 0 {
		return res, nil
	}
	enq := time.Now()
	f.met.submitted.Add(uint64(len(items)))

	n := len(f.workers)
	sc := scratchPool.Get().(*batchScratch)
	if len(sc.per) < n {
		sc.per = make([][]replay.Item, n)
		sc.out = make(chan WorkerBatch, n)
	}
	per := sc.per[:n]
	switch f.cfg.Dispatch {
	case HashBySource:
		for i := range items {
			w := f.workerForKey(items[i].Src, items[i].Data)
			per[w] = append(per[w], replay.Item{Kind: items[i].Kind, Data: items[i].Data, N: items[i].N})
		}
	default: // RoundRobin: deal ceil(len/n)-sized contiguous chunks
		chunk := (len(items) + n - 1) / n
		start := int(f.rr.Add(1) - 1)
		for j := 0; j*chunk < len(items); j++ {
			lo, hi := j*chunk, (j+1)*chunk
			if hi > len(items) {
				hi = len(items)
			}
			w := (start + j) % n
			for i := lo; i < hi; i++ {
				per[w] = append(per[w], replay.Item{Kind: items[i].Kind, Data: items[i].Data, N: items[i].N})
			}
		}
	}

	jobs := 0
	for w := 0; w < n; w++ {
		if len(per[w]) > 0 {
			jobs++
			f.place(w, batchJob{items: per[w], out: sc.out})
		}
	}
	res.Workers = make([]WorkerBatch, 0, jobs)
	for i := 0; i < jobs; i++ {
		wb := <-sc.out
		res.Failures += wb.Failures
		res.Recovered += wb.Recovered
		res.Skipped += wb.Skipped
		res.Workers = append(res.Workers, wb)
	}
	slices.SortFunc(res.Workers, func(a, b WorkerBatch) int {
		return cmp.Or(cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.First, b.First))
	})
	for w := range per {
		per[w] = per[w][:0]
	}
	res.LatencyUS = time.Since(enq).Microseconds()
	f.met.latencyUS.Observe(uint64(res.LatencyUS))
	scratchPool.Put(sc)
	return res, nil
}

// serveBatch ingests one share on the worker goroutine: one supervisor
// call, one telemetry update, one outcome send.
func (w *worker) serveBatch(f *Fleet, bq batchJob) {
	w.busy.Store(true)
	t0 := time.Now()
	br := w.sup.IngestBatch(bq.items)
	ingest := time.Since(t0)
	w.lastClock.Store(w.sup.M.SimNow())
	w.busy.Store(false)
	w.processed.Add(int64(br.Events))

	f.met.ingestUS.Observe(uint64(ingest.Microseconds()))
	f.met.completed.Add(uint64(br.Events))
	f.met.failures.Add(uint64(br.Failures))
	f.met.recoveries.Add(uint64(br.Recoveries))
	f.met.skipped.Add(uint64(br.Skipped))
	bq.out <- WorkerBatch{
		Worker:    w.id,
		First:     br.First,
		Events:    br.Events,
		Failures:  br.Failures,
		Recovered: br.Recoveries,
		Skipped:   br.Skipped,
		Rerouted:  bq.rerouted,
	}
}
