// Package canary defines the canary byte patterns used by First-Aid's
// exposing environmental changes and the helpers that detect their
// corruption.
//
// The paper (§1.2, Table 1) fills padding, delay-freed objects, and
// newly-allocated objects with "certain memory content patterns that are
// unlikely to appear during normal program execution"; a later integrity
// scan that finds a non-canary byte proves an illegal write reached the
// region, and a program that consumes canary bytes as data tends to fail an
// assertion, manifesting read-type bugs.
package canary

import "firstaid/internal/vmem"

// Byte patterns. Distinct patterns per region kind let the diagnosis engine
// attribute a corruption or a poisoned read to the right exposing change.
const (
	// Pad fills the padding added around objects when exposing buffer
	// overflows.
	Pad byte = 0xAB
	// Freed fills delay-freed objects when exposing dangling-pointer
	// reads and writes.
	Freed byte = 0xCD
	// Fresh fills newly allocated objects when exposing uninitialised
	// reads.
	Fresh byte = 0xEF
	// Mark fills free heap chunks during Phase-1 heap marking (paper
	// §4.1, Figure 3), exposing bugs triggered before a checkpoint.
	Mark byte = 0xA5
)

// Word32 returns the canary byte replicated into a 32-bit little-endian
// word, the value a program reads when it loads a poisoned pointer or
// length field.
func Word32(b byte) uint32 {
	w := uint32(b)
	return w | w<<8 | w<<16 | w<<24
}

// IsPoisoned32 reports whether the 32-bit value is one of the replicated
// canary words. Simulated applications use this in their integrity asserts
// to decide that a loaded field is garbage, the analogue of a C program
// crashing on a wild pointer built from canary bytes.
func IsPoisoned32(v uint32) bool {
	switch v {
	case Word32(Pad), Word32(Freed), Word32(Fresh), Word32(Mark):
		return true
	}
	return false
}

// Corruption records a canary check failure: len(Offsets) bytes within the
// region [Addr, Addr+Len) no longer hold the expected pattern.
type Corruption struct {
	Addr    vmem.Addr // start of the scanned region
	Len     int       // length of the scanned region
	Pattern byte      // expected canary byte
	Offsets []int     // offsets within the region that differ
}

// Corrupted reports whether any byte differed.
func (c *Corruption) Corrupted() bool { return c != nil && len(c.Offsets) > 0 }

// Check scans the region [addr, addr+n) in mem for bytes that differ from
// pattern. It returns nil when the region is intact. A region that cannot
// be read (unmapped) is reported as fully corrupted, since that can only
// happen if the heap structure itself was destroyed.
//
// The scan reads mem's page frames in place (vmem.Space.Mismatches), so
// an intact region costs one page-table probe and one vectorized count per
// page and allocates nothing.
func Check(mem *vmem.Space, addr vmem.Addr, n int, pattern byte) *Corruption {
	offs, err := mem.Mismatches(addr, n, pattern)
	if err != nil {
		return &Corruption{Addr: addr, Len: n, Pattern: pattern, Offsets: []int{0}}
	}
	if offs == nil {
		return nil
	}
	return &Corruption{Addr: addr, Len: n, Pattern: pattern, Offsets: offs}
}

// Fill writes the pattern over [addr, addr+n).
func Fill(mem *vmem.Space, addr vmem.Addr, n int, pattern byte) error {
	return mem.Fill(addr, pattern, n)
}
