package chaos

import (
	"fmt"

	"firstaid/internal/replay"
)

// Model is the pure-Go shadow of the chaos app under *patched* semantics:
// each injected-bug op behaves as its First-Aid patch makes it behave
// (overflows stay in bounds, stale accesses are absorbed, re-frees are
// blocked, uninitialized reads see zeroes). After a recovered run, the
// machine's slot table, live-object set and contents must agree with the
// model byte for byte — any drift means recovery corrupted program state.
type Model struct {
	Slots [NumSlots]ModelSlot
}

// ModelSlot mirrors one slot-table entry.
type ModelSlot struct {
	Allocated bool // addr field non-zero
	Stale     bool
	Size      uint32
	Defined   uint32
	Pat       byte
}

func (s ModelSlot) live() bool { return s.Allocated && !s.Stale }

// Apply advances the model by one op, mirroring App.exec exactly.
func (m *Model) Apply(op Op) {
	s := &m.Slots[op.Slot]
	switch op.Kind {
	case OpMalloc:
		*s = ModelSlot{Allocated: true, Size: op.Size, Pat: op.Pat}
	case OpRealloc:
		if !s.live() {
			*s = ModelSlot{Allocated: true, Size: op.Size, Pat: op.Pat}
			return
		}
		s.Size = op.Size
		if s.Defined > op.Size {
			s.Defined = op.Size
		}
	case OpFree:
		if s.live() {
			s.Stale = true
		}
	case OpWrite, OpOverflow:
		// Patched overflow == in-bounds write.
		if s.live() && s.Size > 0 {
			s.Defined, s.Pat = s.Size, op.Pat
		}
	case OpRead, OpCheck, OpProtect, OpUnprotect,
		OpDangleWrite, OpDangleRead, OpDoubleFree, OpUninitRead:
		// Reads never change state; protection moves an object without
		// changing its logical contents; patched stale/uninit accesses
		// and blocked re-frees leave live state untouched.
	}
}

// OpsFromLog decodes a replay log back into the op stream, index-aligned
// with event sequence numbers: ops[i] is nil-equivalent (ok=false ops are
// returned as kind-invalid entries the model skips) when event i is not a
// chaos op. Decoding from the log — rather than trusting the program that
// produced it — keeps the oracle honest for streamed and fleet-recorded
// traffic too.
func OpsFromLog(log *replay.Log) []Op {
	ops := make([]Op, log.Len())
	for i := 0; i < log.Len(); i++ {
		if op, ok := OpFromEvent(log.At(i)); ok {
			ops[i] = op
		} else {
			ops[i] = Op{Kind: numOpKinds}
		}
	}
	return ops
}

// RunModel replays ops through a fresh model, skipping the event indices
// in skipped (events the supervisor dropped after exhausting retries).
func RunModel(ops []Op, skipped map[int]bool) *Model {
	m := &Model{}
	for i, op := range ops {
		if skipped[i] || op.Kind >= numOpKinds {
			continue
		}
		m.Apply(op)
	}
	return m
}

func (s ModelSlot) String() string {
	switch {
	case !s.Allocated:
		return "empty"
	case s.Stale:
		return fmt.Sprintf("stale size=%d pat=%#02x", s.Size, s.Pat)
	default:
		return fmt.Sprintf("live size=%d defined=%d pat=%#02x", s.Size, s.Defined, s.Pat)
	}
}
