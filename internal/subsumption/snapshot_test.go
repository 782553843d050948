package subsumption

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"dlearn/internal/logic"
)

// randBytes feeds the fuzz-clause generator from a seeded PRNG so the
// property tests below run over many clause shapes deterministically.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestSnapshotRestoreBehavesIdentically checks the core property of the
// persistence layer at this package's level: a Prepared restored from its
// snapshot answers every subsumption query exactly like the original, before
// and after the restored one builds its term index, which snapshots do not
// store.
func TestSnapshotRestoreBehavesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ch := New(Options{MaxNodes: 1 << 20})
	for i := 0; i < 300; i++ {
		s := &byteSrc{data: randBytes(rng, 64)}
		d := fuzzClause(s, 5, true)
		c := fuzzClause(s, 3, false)

		orig := ch.Prepare(d)
		restored := RestorePrepared(orig.Snapshot())

		cc := CompileCandidate(c)
		for _, plain := range []bool{false, true} {
			got, _ := cc.Probe(t.Context(), restored, plain)
			want, _ := cc.Probe(t.Context(), orig, plain)
			if got != want {
				t.Fatalf("case %d (plain=%v): restored probe=%v, original=%v\nc=%s\nd=%s", i, plain, got, want, c, d)
			}
		}
		restored.index()
		for _, plain := range []bool{false, true} {
			got, gotTheta, gotSt := witness(t.Context(), cc, restored, plain)
			want, wantTheta, wantSt := witness(t.Context(), cc, orig, plain)
			if got != want || !maps.Equal(gotTheta, wantTheta) || gotSt != wantSt {
				t.Fatalf("case %d (plain=%v): indexed restored probe ok=%v θ=%v %+v, original ok=%v θ=%v %+v\nc=%s\nd=%s",
					i, plain, got, gotTheta, gotSt, want, wantTheta, wantSt, c, d)
			}
		}
	}
}

// TestSnapshotDeterministic checks that snapshots of equal preparations are
// deeply equal — the property the codec's byte-stable encoding builds on.
func TestSnapshotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ch := New(Options{})
	for i := 0; i < 100; i++ {
		d := fuzzClause(&byteSrc{data: randBytes(rng, 48)}, 5, true)
		a := ch.Prepare(d).Snapshot()
		b := ch.Prepare(d).Snapshot()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("case %d: snapshots of equal preparations differ\nd=%s\na=%+v\nb=%+v", i, d, a, b)
		}
	}
}

// TestRestoreClampsMaxNodes guards the defensive clamp: a snapshot with a
// non-positive budget restores to the default instead of a search that can
// never run.
func TestRestoreClampsMaxNodes(t *testing.T) {
	d := logic.NewClause(logic.Rel("p", logic.Const("a")), logic.Rel("q", logic.Const("a")))
	s := New(Options{}).Prepare(d).Snapshot()
	s.MaxNodes = 0
	p := RestorePrepared(s)
	c := logic.NewClause(logic.Rel("p", logic.Var("x")), logic.Rel("q", logic.Var("x")))
	if ok, _ := CompileCandidate(c).Probe(t.Context(), p, false); !ok {
		t.Fatal("restored Prepared with zero MaxNodes cannot search")
	}
}
