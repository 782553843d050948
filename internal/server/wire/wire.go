// Package wire is the JSON wire format of the dlearn-serve API: learning
// problems as clients POST them, learned results, job status and server
// statistics. The encoder and decoder are exact inverses over everything
// that influences learning — relation order, tuple order, constraint sets,
// example order and the engine options — so a problem learned remotely
// yields a definition byte-identical to learning it in process. Both
// dlearn-serve and the dlearn-learn -remote client build their messages
// through this package, which is what keeps the two formats from drifting.
package wire

import (
	"fmt"
	"time"

	"dlearn"
	"dlearn/internal/relation"
)

// Attribute is the wire form of one relation column.
type Attribute struct {
	Name string `json:"name"`
	// Type is "string" (the default when empty), "int" or "float".
	Type   string `json:"type,omitempty"`
	Domain string `json:"domain"`
	// Constant marks attributes whose values stay constants in learned
	// clauses (an ILP "#" mode).
	Constant bool `json:"constant,omitempty"`
}

// Relation is the wire form of a relation descriptor.
type Relation struct {
	Name  string      `json:"name"`
	Attrs []Attribute `json:"attrs"`
}

// AttrPair is one compared attribute pair of an MD's left-hand side.
type AttrPair struct {
	Left  string `json:"left"`
	Right string `json:"right"`
}

// MD is the wire form of a matching dependency.
type MD struct {
	Name       string     `json:"name"`
	LeftRel    string     `json:"left_rel"`
	RightRel   string     `json:"right_rel"`
	Similar    []AttrPair `json:"similar"`
	MatchLeft  string     `json:"match_left"`
	MatchRight string     `json:"match_right"`
}

// CFD is the wire form of a conditional functional dependency.
type CFD struct {
	Name     string            `json:"name"`
	Relation string            `json:"relation"`
	LHS      []string          `json:"lhs"`
	RHS      string            `json:"rhs"`
	Pattern  map[string]string `json:"pattern,omitempty"`
}

// Options carries the engine knobs a job may set. Zero values mean "use the
// server's default" throughout, so a minimal job body configures nothing.
// Seed defaults to 1 (the engine default) rather than anything time-derived:
// remote learning is as deterministic as local learning.
type Options struct {
	Seed                 int64   `json:"seed,omitempty"`
	Threads              int     `json:"threads,omitempty"`
	CandidateParallelism int     `json:"candidate_parallelism,omitempty"`
	Iterations           int     `json:"iterations,omitempty"`
	SampleSize           int     `json:"sample_size,omitempty"`
	TopMatches           int     `json:"top_matches,omitempty"`
	SimilarityThreshold  float64 `json:"similarity_threshold,omitempty"`
	// MDMode is "similarity" (DLearn, the default), "exact" (Castor-Exact)
	// or "ignore" (Castor-NoMD).
	MDMode               string  `json:"md_mode,omitempty"`
	CFDRepairs           bool    `json:"cfd_repairs,omitempty"`
	NoiseTolerance       float64 `json:"noise_tolerance,omitempty"`
	MaxClauses           int     `json:"max_clauses,omitempty"`
	MinPositiveCoverage  int     `json:"min_positive_coverage,omitempty"`
	GeneralizationSample int     `json:"generalization_sample,omitempty"`
	NegativeSearchSample int     `json:"negative_search_sample,omitempty"`
	SubsumptionMaxNodes  int     `json:"subsumption_max_nodes,omitempty"`
	RepairMaxClauses     int     `json:"repair_max_clauses,omitempty"`
	RepairMaxStates      int     `json:"repair_max_states,omitempty"`
	// TimeoutSeconds is the job's deadline. The server clamps it to its
	// configured maximum and applies its default when zero.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// NoCache bypasses the server's result cache for this job: the engine
	// runs even when an identical completed result is cached. The fresh
	// result still refreshes the cache afterwards, like an HTTP no-cache
	// revalidation. It never influences the learned definition, so it is not
	// part of any fingerprint.
	NoCache bool `json:"no_cache,omitempty"`
}

// Problem is the body of POST /v1/jobs: a complete learning task.
type Problem struct {
	// Target is the relation being defined.
	Target Relation `json:"target"`
	// Relations is the database schema in insertion order. Order is part of
	// the contract: it determines iteration order inside the engine and so
	// the learned definition's exact rendering.
	Relations []Relation `json:"relations"`
	// Tuples maps relation name to rows, each row in attribute order.
	Tuples map[string][][]string `json:"tuples"`
	MDs    []MD                  `json:"mds,omitempty"`
	CFDs   []CFD                 `json:"cfds,omitempty"`
	// Pos and Neg are training examples as raw attribute values of the
	// target relation.
	Pos     [][]string `json:"pos"`
	Neg     [][]string `json:"neg,omitempty"`
	Options Options    `json:"options,omitempty"`
}

// EncodeProblem converts a validated in-process problem to its wire form.
// Schema relations, tuples and examples keep their order, so decoding the
// result reproduces the problem exactly.
func EncodeProblem(p *dlearn.Problem) Problem {
	w := Problem{
		Target: encodeRelation(p.Target),
		Tuples: map[string][][]string{},
	}
	schema := p.Instance.Schema()
	for _, rel := range schema.Relations() {
		w.Relations = append(w.Relations, encodeRelation(rel))
		for _, t := range p.Instance.Tuples(rel.Name) {
			w.Tuples[rel.Name] = append(w.Tuples[rel.Name], t.Values)
		}
	}
	for _, md := range p.MDs {
		pairs := make([]AttrPair, len(md.Similar))
		for i, pr := range md.Similar {
			pairs[i] = AttrPair{Left: pr.Left, Right: pr.Right}
		}
		w.MDs = append(w.MDs, MD{
			Name: md.Name, LeftRel: md.LeftRel, RightRel: md.RightRel,
			Similar: pairs, MatchLeft: md.MatchLeft, MatchRight: md.MatchRight,
		})
	}
	for _, cfd := range p.CFDs {
		w.CFDs = append(w.CFDs, CFD{
			Name: cfd.Name, Relation: cfd.Relation,
			LHS: append([]string(nil), cfd.LHS...), RHS: cfd.RHS, Pattern: cfd.Pattern,
		})
	}
	for _, t := range p.Pos {
		w.Pos = append(w.Pos, t.Values)
	}
	for _, t := range p.Neg {
		w.Neg = append(w.Neg, t.Values)
	}
	return w
}

func encodeRelation(r *dlearn.Relation) Relation {
	out := Relation{Name: r.Name}
	for _, a := range r.Attrs {
		wa := Attribute{Name: a.Name, Domain: a.Domain, Constant: a.Constant}
		if s := a.Type.String(); s != "string" {
			wa.Type = s
		}
		out.Attrs = append(out.Attrs, wa)
	}
	return out
}

// Decode rebuilds the in-process problem: schema relations in listed order,
// tuples in listed order, then the usual ProblemBuilder validation. The
// returned problem passed the same checks Engine.Learn performs.
func (w Problem) Decode() (*dlearn.Problem, error) {
	target, err := decodeRelation(w.Target)
	if err != nil {
		return nil, fmt.Errorf("wire: target: %w", err)
	}
	schema := dlearn.NewSchema()
	for _, r := range w.Relations {
		rel, err := decodeRelation(r)
		if err != nil {
			return nil, fmt.Errorf("wire: relation %q: %w", r.Name, err)
		}
		if err := schema.Add(rel); err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	}
	db := dlearn.NewInstance(schema)
	for _, r := range w.Relations {
		for i, row := range w.Tuples[r.Name] {
			if err := db.Insert(r.Name, row...); err != nil {
				return nil, fmt.Errorf("wire: tuple %d of %s: %w", i, r.Name, err)
			}
		}
	}
	for rel := range w.Tuples {
		if !schema.Has(rel) {
			return nil, fmt.Errorf("wire: tuples for undeclared relation %q", rel)
		}
	}
	b := dlearn.NewProblem(target).OnInstance(db)
	for _, md := range w.MDs {
		pairs := make([]dlearn.AttrPair, len(md.Similar))
		for i, pr := range md.Similar {
			pairs[i] = dlearn.AttrPair{Left: pr.Left, Right: pr.Right}
		}
		b.WithMDs(dlearn.NewMD(md.Name, md.LeftRel, md.RightRel, pairs, md.MatchLeft, md.MatchRight))
	}
	for _, cfd := range w.CFDs {
		b.WithCFDs(dlearn.NewCFD(cfd.Name, cfd.Relation, cfd.LHS, cfd.RHS, cfd.Pattern))
	}
	for _, row := range w.Pos {
		b.PosValues(row...)
	}
	for _, row := range w.Neg {
		b.NegValues(row...)
	}
	return b.Build()
}

func decodeRelation(r Relation) (*dlearn.Relation, error) {
	if r.Name == "" {
		return nil, fmt.Errorf("relation needs a name")
	}
	if len(r.Attrs) == 0 {
		return nil, fmt.Errorf("relation needs attributes")
	}
	attrs := make([]dlearn.Attribute, len(r.Attrs))
	for i, a := range r.Attrs {
		attr := dlearn.Attribute{Name: a.Name, Domain: a.Domain, Constant: a.Constant}
		switch a.Type {
		case "", "string":
			attr.Type = relation.String
		case "int":
			attr.Type = relation.Int
		case "float":
			attr.Type = relation.Float
		default:
			return nil, fmt.Errorf("attribute %q has unknown type %q", a.Name, a.Type)
		}
		attrs[i] = attr
	}
	return dlearn.NewRelation(r.Name, attrs...), nil
}

// EngineOptions converts the set wire options to engine options; zero-valued
// fields contribute nothing, so the server's base configuration shows
// through.
func (o Options) EngineOptions() ([]dlearn.Option, error) {
	var opts []dlearn.Option
	if o.Seed != 0 {
		opts = append(opts, dlearn.WithSeed(o.Seed))
	}
	if o.Threads > 0 {
		opts = append(opts, dlearn.WithThreads(o.Threads))
	}
	if o.CandidateParallelism > 0 {
		opts = append(opts, dlearn.WithCandidateParallelism(o.CandidateParallelism))
	}
	if o.Iterations > 0 {
		opts = append(opts, dlearn.WithIterations(o.Iterations))
	}
	if o.SampleSize > 0 {
		opts = append(opts, dlearn.WithSampleSize(o.SampleSize))
	}
	if o.TopMatches > 0 {
		opts = append(opts, dlearn.WithTopMatches(o.TopMatches))
	}
	if o.SimilarityThreshold > 0 {
		opts = append(opts, dlearn.WithSimilarityThreshold(o.SimilarityThreshold))
	}
	switch o.MDMode {
	case "":
	case "similarity":
		opts = append(opts, dlearn.WithMDMode(dlearn.MDSimilarity))
	case "exact":
		opts = append(opts, dlearn.WithMDMode(dlearn.MDExact))
	case "ignore":
		opts = append(opts, dlearn.WithMDMode(dlearn.MDIgnore))
	default:
		return nil, fmt.Errorf("wire: unknown md_mode %q (want similarity, exact or ignore)", o.MDMode)
	}
	if o.CFDRepairs {
		opts = append(opts, dlearn.WithCFDRepairs(true))
	}
	if o.NoiseTolerance > 0 {
		opts = append(opts, dlearn.WithNoiseTolerance(o.NoiseTolerance))
	}
	if o.MaxClauses > 0 {
		opts = append(opts, dlearn.WithMaxClauses(o.MaxClauses))
	}
	if o.MinPositiveCoverage > 0 {
		opts = append(opts, dlearn.WithMinPositiveCoverage(o.MinPositiveCoverage))
	}
	if o.GeneralizationSample > 0 {
		opts = append(opts, dlearn.WithGeneralizationSample(o.GeneralizationSample))
	}
	if o.NegativeSearchSample > 0 {
		opts = append(opts, dlearn.WithNegativeSearchSample(o.NegativeSearchSample))
	}
	if o.SubsumptionMaxNodes > 0 {
		opts = append(opts, dlearn.WithSubsumptionBudget(o.SubsumptionMaxNodes))
	}
	if o.RepairMaxClauses > 0 || o.RepairMaxStates > 0 {
		opts = append(opts, dlearn.WithRepairBudget(o.RepairMaxClauses, o.RepairMaxStates))
	}
	return opts, nil
}

// Timeout returns the requested job deadline, zero when unset.
func (o Options) Timeout() time.Duration {
	if o.TimeoutSeconds <= 0 {
		return 0
	}
	return time.Duration(o.TimeoutSeconds * float64(time.Second))
}
