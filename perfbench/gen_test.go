package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// encodeSequence encodes a generator's preload and its next n operations.
func encodeSequence(t *testing.T, w *workload, seed uint64, n int) []byte {
	t.Helper()
	g, err := newGenerator(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, o := range g.preload() {
		buf = o.appendEncoded(buf)
	}
	for i := 0; i < n; i++ {
		buf = g.next().appendEncoded(buf)
	}
	return buf
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// churn_mixed reaches its major-stream cap (and so deletes)
			// after about 8k operations.
			const n = 12000
			a := encodeSequence(t, w, 7, n)
			b := encodeSequence(t, w, 7, n)
			if !bytes.Equal(a, b) {
				t.Fatal("same seed, different operation sequences")
			}
			if bytes.Equal(a, encodeSequence(t, w, 8, n)) {
				t.Fatal("different seeds, same operation sequence")
			}
		})
	}
}

// TestChurnDeletesAtCap checks the Clockwork pattern: majors activate at a
// fixed period and, at the cap, each activation deletes the oldest.
func TestChurnDeletesAtCap(t *testing.T) {
	w, err := workloadByName("churn_mixed")
	if err != nil {
		t.Fatal(err)
	}
	// Seed 55 deletes a major written twice among the last churnRecent
	// writes; a read of it once followed the delete.
	for _, seed := range []uint64{1, 55} {
		g, err := newGenerator(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		deletes := 0
		for i := 0; i < 80000; i++ {
			o := g.next()
			if o.kind == opDelete {
				deletes++
				if !o.stream.dead {
					t.Fatalf("seed %d: delete of %s, not marked dead", seed, o.stream.id)
				}
			}
			if o.kind.isRead() && o.stream.dead {
				t.Fatalf("seed %d: read of deleted stream %s generated after its delete", seed, o.stream.id)
			}
		}
		if deletes == 0 || len(g.majors) != churnMajorCap {
			t.Fatalf("seed %d: %d deletes, %d active majors; want > 0 and %d", seed, deletes, len(g.majors), churnMajorCap)
		}
	}
}

// appendEncoded appends a canonical byte encoding of o: everything that
// reaches the server plus the arrival gap. Two generators built from the
// same workload and seed must produce identical encodings.
func (o *op) appendEncoded(dst []byte) []byte {
	dst = append(dst, byte(o.kind))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(o.gap))
	dst = append(dst, o.method...)
	dst = append(dst, ' ')
	dst = append(dst, o.path...)
	dst = append(dst, ' ')
	dst = append(dst, o.tenant...)
	if o.binary {
		dst = append(dst, " bin"...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(o.body)))
	return append(dst, o.body...)
}
