package persist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"dlearn/internal/coverage"
	"dlearn/internal/logic"
	"dlearn/internal/persist"
	"dlearn/internal/repair"
	"dlearn/internal/subsumption"
)

// genGround builds a ground bottom clause with the full literal zoo the
// codec must carry: relation literals, restriction literals (=, ≠, ≈,
// including induced equalities), and MD and CFD repair literals with
// conditions and groups, so preparations have non-trivial equality
// closures, similarity pairs, connectivity and repair expansions.
func genGround(rng *rand.Rand) logic.Clause {
	consts := []string{"a", "b", "c", "d", "e"}
	pick := func() logic.Term { return logic.Const(consts[rng.Intn(len(consts))]) }
	id := logic.Const(consts[rng.Intn(len(consts))])
	title := pick()
	body := []logic.Literal{
		logic.Rel("movies", id, title),
		logic.Rel("mov2genres", id, pick()),
	}
	if rng.Intn(2) == 0 {
		body = append(body, logic.Rel("ratings", id, pick()))
	}
	switch rng.Intn(4) {
	case 0:
		body = append(body, logic.Eq(pick(), pick()))
	case 1:
		body = append(body, logic.InducedEq(pick(), pick()))
	case 2:
		body = append(body, logic.Sim(pick(), pick()))
	case 3:
		body = append(body, logic.Neq(pick(), pick()))
	}
	if rng.Intn(2) == 0 {
		v := logic.Var("vt")
		body = append(body,
			logic.Sim(title, v),
			logic.RepairInGroup("md1", "md1#0", logic.OriginMD, title, v,
				logic.Condition{Op: logic.CondSim, L: title, R: v}))
	}
	if rng.Intn(2) == 0 {
		v := logic.Var("vg")
		g := pick()
		body = append(body, logic.Rel("mov2genres", id, g),
			logic.RepairInGroup("cfd1", "cfd1#0", logic.OriginCFD, g, v,
				logic.Condition{Op: logic.CondEq, L: v, R: pick()}))
	}
	return logic.NewClause(logic.Rel("highGrossing", title), body...)
}

// genCandidate builds a small non-ground candidate clause to probe
// preparations with.
func genCandidate(rng *rand.Rand) logic.Clause {
	x, y := logic.Var("x"), logic.Var("y")
	body := []logic.Literal{logic.Rel("movies", y, x)}
	if rng.Intn(2) == 0 {
		body = append(body, logic.Rel("mov2genres", y, logic.Var("z")))
	}
	if rng.Intn(3) == 0 {
		body = append(body, logic.Rel("ratings", y, logic.Const("a")))
	}
	return logic.NewClause(logic.Rel("highGrossing", x), body...)
}

func genSet(t *testing.T, rng *rand.Rand, e *coverage.Evaluator, nPos, nNeg int) ([]*coverage.Example, []*coverage.Example, persist.ExampleSet) {
	t.Helper()
	ctx := context.Background()
	grounds := func(n int) []logic.Clause {
		out := make([]logic.Clause, n)
		for i := range out {
			out[i] = genGround(rng)
		}
		return out
	}
	pos, err := e.NewExamples(ctx, grounds(nPos))
	if err != nil {
		t.Fatalf("NewExamples: %v", err)
	}
	neg, err := e.NewExamples(ctx, grounds(nNeg))
	if err != nil {
		t.Fatalf("NewExamples: %v", err)
	}
	return pos, neg, coverage.SnapshotExamples(pos, neg)
}

func newEvaluator() *coverage.Evaluator {
	return coverage.NewEvaluator(coverage.Options{
		Subsumption: subsumption.Options{MaxNodes: 50000},
		Repair:      repair.Options{MaxClauses: 8, MaxStates: 128},
		Threads:     2,
	})
}

// TestRoundTripByteEquality is the codec's property test:
// encode(decode(encode(set))) must be byte-identical to encode(set), over
// many randomly generated prepared-example sets.
func TestRoundTripByteEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := newEvaluator()
	for i := 0; i < 25; i++ {
		_, _, set := genSet(t, rng, e, 1+rng.Intn(4), rng.Intn(3))
		data := persist.EncodeExampleSet(set)
		decoded, err := persist.DecodeExampleSet(data)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		again := persist.EncodeExampleSet(decoded)
		if !bytes.Equal(data, again) {
			t.Fatalf("case %d: re-encoding decoded set changed bytes (%d vs %d)", i, len(data), len(again))
		}
	}
}

// TestDecodedExamplesBehaveIdentically cross-checks restored preparations
// against fresh ones, FuzzSubsumes-style: every coverage answer over the
// decoded examples must match the answer over the originals.
func TestDecodedExamplesBehaveIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		e := newEvaluator()
		pos, neg, set := genSet(t, rng, e, 4, 4)
		decoded, err := persist.DecodeExampleSet(persist.EncodeExampleSet(set))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		restored := coverage.NewEvaluator(coverage.Options{
			Subsumption: subsumption.Options{MaxNodes: 50000},
			Repair:      repair.Options{MaxClauses: 8, MaxStates: 128},
			Threads:     2,
		})
		var rPos, rNeg []*coverage.Example
		for _, s := range decoded.Pos {
			rPos = append(rPos, restored.RestoreExample(s))
		}
		for _, s := range decoded.Neg {
			rNeg = append(rNeg, restored.RestoreExample(s))
		}
		for j := 0; j < 12; j++ {
			c := genCandidate(rng)
			for k := range pos {
				if got, want := restored.CoversPositiveExample(ctx, c, rPos[k]), e.CoversPositiveExample(ctx, c, pos[k]); got != want {
					t.Fatalf("case %d cand %d pos %d: restored=%v fresh=%v\nc=%s\ng=%s", i, j, k, got, want, c, pos[k].Ground)
				}
			}
			for k := range neg {
				if got, want := restored.CountNegativeExamples(ctx, c, rNeg[k:k+1]), e.CountNegativeExamples(ctx, c, neg[k:k+1]); got != want {
					t.Fatalf("case %d cand %d neg %d: restored=%v fresh=%v\nc=%s\ng=%s", i, j, k, got, want, c, neg[k].Ground)
				}
			}
		}
	}
}

// TestCorruptedSnapshotRejected flips bytes across the snapshot and checks
// every corruption is caught by the checksum (or the header checks), never
// silently decoded.
func TestCorruptedSnapshotRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := newEvaluator()
	_, _, set := genSet(t, rng, e, 2, 1)
	data := persist.EncodeExampleSet(set)
	for pos := 0; pos < len(data); pos += 1 + pos/16 {
		corrupt := bytes.Clone(data)
		corrupt[pos] ^= 0x41
		if _, err := persist.DecodeExampleSet(corrupt); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", pos, len(data))
		}
	}
}

// TestTruncatedSnapshotRejected checks every proper prefix fails to decode.
func TestTruncatedSnapshotRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := newEvaluator()
	_, _, set := genSet(t, rng, e, 2, 1)
	data := persist.EncodeExampleSet(set)
	for n := 0; n < len(data); n += 1 + n/8 {
		if _, err := persist.DecodeExampleSet(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(data))
		}
	}
}

// TestUnsupportedVersionRejected checks the version gate so a future format
// bump degrades to a miss on old binaries instead of misparsing.
func TestUnsupportedVersionRejected(t *testing.T) {
	data := persist.EncodeExampleSet(persist.ExampleSet{})
	data[6], data[7] = 0xFF, 0xFE
	if _, err := persist.DecodeExampleSet(data); err == nil {
		t.Fatal("bumped version went undetected")
	}
}

// TestEmptySetRoundTrips pins the degenerate case.
func TestEmptySetRoundTrips(t *testing.T) {
	data := persist.EncodeExampleSet(persist.ExampleSet{})
	set, err := persist.DecodeExampleSet(data)
	if err != nil {
		t.Fatalf("decode empty set: %v", err)
	}
	if len(set.Pos) != 0 || len(set.Neg) != 0 {
		t.Fatalf("empty set decoded as %d/%d examples", len(set.Pos), len(set.Neg))
	}
}

// TestOldVersionSnapshotRejected pins the v1 → v2 upgrade path: a snapshot
// carrying the previous format version with a valid checksum is rejected by
// the version gate specifically — not the checksum — so callers fall back to
// a fresh preparation and write the current format back.
func TestOldVersionSnapshotRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := newEvaluator()
	_, _, set := genSet(t, rng, e, 1, 1)
	data := persist.EncodeExampleSet(set)
	data = data[:len(data)-4]
	data[6], data[7] = 0, 1 // version 1, big-endian
	data = binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
	_, err := persist.DecodeExampleSet(data)
	if err == nil {
		t.Fatal("version-1 snapshot went undetected")
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("want a version error naming version 1, got %v", err)
	}
}
