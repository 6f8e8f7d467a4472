package query

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// TestRunOutputsUnchanged pins a digest of everything random range, kNN and
// join runs return over worlds with missing nodes, super entries and object
// payloads: the Stats, the Results and Pairs in confirmation order, and the
// Remainder's keys (bit for bit), elements and deferral flags. One Runner
// serves every run, so its queue and buffers are warm from the second run on.
// The digest was recorded before the queue gained its zero-key lane; an
// intended change to what the engine answers re-records it from the failure
// message, and says why.
func TestRunOutputsUnchanged(t *testing.T) {
	const want = "11481235702c2769caa822a1ae256daa4c5178f9d9ddad014ca3c19dc14eda69"
	r := rand.New(rand.NewSource(38))
	h := sha256.New()
	var runner Runner
	var kinds [4]int
	for trial := 0; trial < 600; trial++ {
		w := buildPairWorld(r)
		root := w.inner[0]
		delete(w.missing, root)
		at := geom.Pt(0.2+0.6*r.Float64(), 0.2+0.6*r.Float64())
		var q Query
		switch trial % 3 {
		case 0:
			side := 0.05 + 0.5*r.Float64()
			q = NewRange(geom.RectFromCenter(at, side, side))
		case 1:
			q = NewKNN(at, 1+r.Intn(24))
		default:
			side := 0.1 + 0.6*r.Float64()
			q = NewJoin(geom.RectFromCenter(at, side, side), 0.03*r.Float64())
		}
		seed := AppendSeedRoot(nil, q, root)
		if q.Kind == Range && trial%2 == 0 && len(seed) > 0 {
			seed[0].Key = 0.5 // a foreign seed keyed off zero: the heap loop, not the FIFO
		}
		out := runner.Run(q, w, seed)
		kinds[q.Kind] += len(out.Results) + len(out.Pairs) + len(out.Remainder)
		hashOutcome(h, out)
	}
	for k := Range; k <= Join; k++ {
		if kinds[k] == 0 {
			t.Fatalf("%v runs returned nothing", k)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("outcomes hash to %s, want %s", got, want)
	}
}

func hashOutcome(h hash.Hash, out Outcome) {
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	ref := func(r Ref) {
		word(uint64(r.Kind))
		word(uint64(r.Node))
		word(uint64(r.Obj))
		h.Write([]byte(r.Code))
		word(uint64(len(r.Code)))
		for _, v := range []float64{r.MBR.MinX, r.MBR.MinY, r.MBR.MaxX, r.MBR.MaxY} {
			word(math.Float64bits(v))
		}
	}
	for _, n := range []int{out.Stats.Pops, out.Stats.Pushes, out.Stats.Expands, out.Stats.Evals, len(out.Results), len(out.Pairs), len(out.Remainder)} {
		word(uint64(n))
	}
	for _, r := range out.Results {
		ref(r)
	}
	for _, p := range out.Pairs {
		ref(p[0])
		ref(p[1])
	}
	for _, qe := range out.Remainder {
		word(math.Float64bits(qe.Key))
		ref(qe.Elem.A)
		ref(qe.Elem.B)
		for _, b := range []bool{qe.Elem.Pair, qe.Deferred} {
			if b {
				word(1)
			} else {
				word(0)
			}
		}
	}
	if out.Complete {
		word(1)
	}
}

// TestRefPacking pins the sizes the engine copies per queued element: a Ref
// in one 64-byte cache line, an Elem of two refs and a flag in 136 bytes.
func TestRefPacking(t *testing.T) {
	if got := unsafe.Sizeof(Ref{}); got != 64 {
		t.Errorf("Ref is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Elem{}); got != 136 {
		t.Errorf("Elem is %d bytes, want 136", got)
	}
}
