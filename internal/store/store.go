// Package store is the pluggable external-memory seam of the functional
// ORAM: where the sealed bucket contents physically live. The timing
// simulator never touches it (timing mode stores no payloads at all); the
// functional mode — the shadowd server — reads
// and writes buckets of ciphertexts through the Backend interface, so the
// same controller can run against process memory, a file, or a simulated
// remote store, exactly the client/server split of Path ORAM deployments.
//
// A Backend sees only what the ORAM adversary sees: which bucket is read
// or written and an indistinguishable ciphertext per slot. Slot order
// within a bucket carries no information (every slot is re-sealed on every
// write).
package store

import (
	"fmt"
	"time"
)

// Backend stores the sealed slot payloads of every bucket.
//
// ReadBucket returns one slice per slot; a nil slot holds no ciphertext
// (buckets start empty until the first path write seals them). The
// returned slices may alias backend-owned memory and are valid until the
// next call for the same bucket; callers that retain a payload must copy
// it. WriteBucket replaces the whole bucket; the backend takes ownership
// of the given slices (ciphertexts are write-once — the sealer never
// mutates them afterwards).
type Backend interface {
	ReadBucket(bucket int) ([][]byte, error)
	WriteBucket(bucket int, slots [][]byte) error
	Close() error
}

// Mem is the in-process backend: a flat slice of buckets. The zero value
// is not usable; use NewMem.
type Mem struct {
	buckets [][][]byte
	slots   int
}

// NewMem builds an in-memory backend for buckets buckets of slots slots.
func NewMem(buckets, slots int) *Mem {
	b := make([][][]byte, buckets)
	for i := range b {
		b[i] = make([][]byte, slots)
	}
	return &Mem{buckets: b, slots: slots}
}

// ReadBucket returns the live slot slice of bucket.
func (m *Mem) ReadBucket(bucket int) ([][]byte, error) {
	if bucket < 0 || bucket >= len(m.buckets) {
		return nil, fmt.Errorf("store: bucket %d outside [0,%d)", bucket, len(m.buckets))
	}
	return m.buckets[bucket], nil
}

// WriteBucket installs slots as bucket's contents.
func (m *Mem) WriteBucket(bucket int, slots [][]byte) error {
	if bucket < 0 || bucket >= len(m.buckets) {
		return fmt.Errorf("store: bucket %d outside [0,%d)", bucket, len(m.buckets))
	}
	if len(slots) != m.slots {
		return fmt.Errorf("store: bucket %d write of %d slots, want %d", bucket, len(slots), m.slots)
	}
	m.buckets[bucket] = slots
	return nil
}

// Close releases nothing; the memory is garbage.
func (m *Mem) Close() error { return nil }

// Latency wraps a backend and injects a fixed wall-clock delay per bucket
// operation — the "remote" backend: it models a storage server a network
// round trip away without changing what is stored. Simulated cycle counts
// are unaffected (the timing model never calls into storage); only real
// service time grows.
type Latency struct {
	inner Backend
	d     time.Duration
}

// NewLatency wraps inner with d of delay per ReadBucket/WriteBucket.
func NewLatency(inner Backend, d time.Duration) *Latency {
	return &Latency{inner: inner, d: d}
}

// ReadBucket delays, then reads through.
func (l *Latency) ReadBucket(bucket int) ([][]byte, error) {
	time.Sleep(l.d)
	return l.inner.ReadBucket(bucket)
}

// WriteBucket delays, then writes through.
func (l *Latency) WriteBucket(bucket int, slots [][]byte) error {
	time.Sleep(l.d)
	return l.inner.WriteBucket(bucket, slots)
}

// Close closes the wrapped backend.
func (l *Latency) Close() error { return l.inner.Close() }
