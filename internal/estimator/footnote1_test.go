package estimator_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/estimator"
	"github.com/sampleclean/svc/internal/expr"
	"github.com/sampleclean/svc/internal/relation"
)

// The paper folds a GROUP BY into the predicate (footnote 1): the answer
// for group v is the scalar answer with "group = v" ANDed into the WHERE
// clause. These tests hold every grouped estimator to that definition on
// random relations built to hit the awkward cases: keys whose group
// changes between Ŝ and Ŝ′, NULL group and attribute values, groups that
// exist only in Ŝ, groups with no matching rows, and every aggregate.

func randSchema() relation.Schema {
	return relation.NewSchema([]relation.Column{
		{Name: "k", Type: relation.KindInt},
		{Name: "g", Type: relation.KindInt},
		{Name: "h", Type: relation.KindString},
		{Name: "x", Type: relation.KindFloat},
		{Name: "y", Type: relation.KindInt},
	}, "k")
}

// randomGrouped builds a stale view of n rows over the given number of
// groups, its Bernoulli sample Ŝ at ratio 0.3, and the corresponding
// up-to-date sample Ŝ′: most sampled rows unchanged, some with new values
// (and often a new group), some deleted, plus sampled new keys. With
// onlyStale set, Ŝ also holds superfluous rows of a group that neither the
// stale view nor Ŝ′ has.
func randomGrouped(seed int64, n, groups, nullPct int, onlyStale bool) (*relation.Relation, *clean.Samples) {
	rng := rand.New(rand.NewSource(seed))
	sch := randSchema()
	null := func() bool { return rng.Intn(100) < nullPct }
	row := func(k int64) relation.Row {
		r := relation.Row{relation.Int(k), relation.Int(rng.Int63n(int64(groups))),
			relation.String(string(rune('a' + rng.Intn(3)))), relation.Float(10 + rng.Float64()*100),
			relation.Int(rng.Int63n(10))}
		if null() {
			r[1] = relation.Null()
		}
		if null() {
			r[2] = relation.Null()
		}
		if null() {
			r[3] = relation.Null()
		}
		return r
	}
	const ratio = 0.3
	stale := relation.New(sch)
	s := &clean.Samples{Fresh: relation.New(sch), Stale: relation.New(sch), Ratio: ratio}
	for k := int64(0); k < int64(n); k++ {
		r := row(k)
		stale.MustInsert(r)
		if rng.Float64() >= ratio {
			continue
		}
		s.Stale.MustInsert(r)
		switch p := rng.Float64(); {
		case p < 0.6:
			s.Fresh.MustInsert(r)
		case p < 0.85:
			nr := row(k) // new values, usually a different group
			s.Fresh.MustInsert(nr)
		}
	}
	for k := int64(n); k < int64(n+n/4); k++ {
		if rng.Float64() < ratio {
			s.Fresh.MustInsert(row(k))
		}
	}
	if onlyStale {
		for k := int64(10 * n); k < int64(10*n+3); k++ {
			r := row(k)
			r[1] = relation.Int(int64(groups)) // a group no other input has
			s.Stale.MustInsert(r)
		}
	}
	return stale, s
}

// groupMembers maps each encoded group key of the relations to its
// group values.
func groupMembers(groupBy []string, rels ...*relation.Relation) map[string]relation.Row {
	out := map[string]relation.Row{}
	for _, rel := range rels {
		idx := make([]int, len(groupBy))
		for i, c := range groupBy {
			idx[i] = rel.Schema().ColIndex(c)
		}
		for _, row := range rel.Rows() {
			k := row.KeyOf(idx)
			if _, ok := out[k]; !ok {
				vals := make(relation.Row, len(idx))
				for i, j := range idx {
					vals[i] = row[j]
				}
				out[k] = vals
			}
		}
	}
	return out
}

// withGroup ANDs "group = vals" into q's predicate (IS NULL for NULLs).
func withGroup(q estimator.Query, groupBy []string, vals relation.Row) estimator.Query {
	conj := make([]expr.Expr, 0, len(groupBy)+1)
	if q.Pred != nil {
		conj = append(conj, q.Pred)
	}
	for i, c := range groupBy {
		if vals[i].IsNull() {
			conj = append(conj, expr.IsNull(expr.Col(c)))
		} else {
			conj = append(conj, expr.Eq(expr.Col(c), expr.Lit(vals[i])))
		}
	}
	q.Pred = expr.And(conj...)
	return q
}

func label(vals relation.Row) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

// close reports whether a and b agree to 1e-9 relative (NaNs and equal
// infinities agree with themselves).
func close(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func sameEstimate(g, s estimator.Estimate) bool {
	return close(g.Value, s.Value) && close(g.Lo, s.Lo) && close(g.Hi, s.Hi) && close(g.TailProb, s.TailProb)
}

// checkLabels verifies that a grouped result reports exactly the groups
// of the given relations, each with its printable label.
func checkLabels(labels map[string]string, want map[string]relation.Row) error {
	if len(labels) != len(want) {
		return fmt.Errorf("%d labels, want %d", len(labels), len(want))
	}
	for k, vals := range want {
		if l, ok := labels[k]; !ok || l != label(vals) {
			return fmt.Errorf("group %s labelled %q (present %v)", label(vals), l, ok)
		}
	}
	return nil
}

// checkFootnote1 compares every grouped estimator with its scalar
// counterpart on every group.
func checkFootnote1(stale *relation.Relation, s *clean.Samples, q estimator.Query, groupBy []string) error {
	const conf = 0.9
	viewFresh := groupMembers(groupBy, stale, s.Fresh)
	all := groupMembers(groupBy, stale, s.Fresh, s.Stale)
	fresh := groupMembers(groupBy, s.Fresh)

	exact, labels, err := estimator.GroupExact(stale, q, groupBy)
	if err != nil {
		return fmt.Errorf("GroupExact: %v", err)
	}
	if err := checkLabels(labels, groupMembers(groupBy, stale)); err != nil {
		return fmt.Errorf("GroupExact: %v", err)
	}
	for k, vals := range groupMembers(groupBy, stale) {
		want, err := estimator.RunExact(stale, withGroup(q, groupBy, vals))
		if err != nil {
			return fmt.Errorf("RunExact: %v", err)
		}
		if !close(exact[k], want) {
			return fmt.Errorf("GroupExact group %s = %v, scalar %v", label(vals), exact[k], want)
		}
	}

	corr, err := estimator.GroupCorr(stale, s, q, groupBy, conf)
	if err != nil {
		return fmt.Errorf("GroupCorr: %v", err)
	}
	if err := checkLabels(corr.Labels, viewFresh); err != nil {
		return fmt.Errorf("GroupCorr: %v", err)
	}
	for k, vals := range viewFresh {
		want, werr := estimator.Corr(stale, s, withGroup(q, groupBy, vals), conf)
		got, ok := corr.Groups[k]
		switch {
		case ok != (werr == nil):
			return fmt.Errorf("GroupCorr group %s present=%v, scalar err %v", label(vals), ok, werr)
		case ok && !sameEstimate(got, want):
			return fmt.Errorf("GroupCorr group %s = %+v, scalar %+v", label(vals), got, want)
		}
	}

	aqp, err := estimator.GroupAQP(s, q, groupBy, conf)
	if err != nil {
		return fmt.Errorf("GroupAQP: %v", err)
	}
	if err := checkLabels(aqp.Labels, fresh); err != nil {
		return fmt.Errorf("GroupAQP: %v", err)
	}
	for k, vals := range fresh {
		want, werr := estimator.AQP(s, withGroup(q, groupBy, vals), conf)
		got, ok := aqp.Groups[k]
		switch {
		case ok != (werr == nil):
			return fmt.Errorf("GroupAQP group %s present=%v, scalar err %v", label(vals), ok, werr)
		case ok && !sameEstimate(got, want):
			return fmt.Errorf("GroupAQP group %s = %+v, scalar %+v", label(vals), got, want)
		}
	}

	if !estimator.Mergeable(q.Agg) {
		return nil
	}
	pc, err := estimator.GroupPartialCorr(stale, s, q, groupBy)
	if err != nil {
		return fmt.Errorf("GroupPartialCorr: %v", err)
	}
	if err := checkLabels(pc.Labels, all); err != nil {
		return fmt.Errorf("GroupPartialCorr: %v", err)
	}
	if len(pc.Groups) != len(all) {
		return fmt.Errorf("GroupPartialCorr: %d groups, want %d", len(pc.Groups), len(all))
	}
	for k, vals := range all {
		want, err := estimator.PartialCorr(stale, s, withGroup(q, groupBy, vals))
		if err != nil {
			return fmt.Errorf("PartialCorr: %v", err)
		}
		if err := samePartial(pc.Groups[k], want, conf); err != nil {
			return fmt.Errorf("GroupPartialCorr group %s: %v", label(vals), err)
		}
	}
	pa, err := estimator.GroupPartialAQP(s, q, groupBy)
	if err != nil {
		return fmt.Errorf("GroupPartialAQP: %v", err)
	}
	if err := checkLabels(pa.Labels, fresh); err != nil {
		return fmt.Errorf("GroupPartialAQP: %v", err)
	}
	for k, vals := range fresh {
		want, err := estimator.PartialAQP(s, withGroup(q, groupBy, vals))
		if err != nil {
			return fmt.Errorf("PartialAQP: %v", err)
		}
		if err := samePartial(pa.Groups[k], want, conf); err != nil {
			return fmt.Errorf("GroupPartialAQP group %s: %v", label(vals), err)
		}
	}
	return nil
}

// samePartial compares the statistics that do not depend on how many
// zero terms the scalar form carries for rows outside the group, then the
// finalized estimates.
func samePartial(g, s estimator.Partial, conf float64) error {
	if !close(g.Stale, s.Stale) || !close(g.Sum, s.Sum) || !close(g.SumSq, s.SumSq) ||
		!close(g.CntStale, s.CntStale) || !close(g.CntSum, s.CntSum) || !close(g.CntSumSq, s.CntSumSq) {
		return fmt.Errorf("%+v, scalar %+v", g, s)
	}
	ge, gerr := g.Finalize(conf)
	se, serr := s.Finalize(conf)
	if (gerr == nil) != (serr == nil) || (gerr == nil && !sameEstimate(ge, se)) {
		return fmt.Errorf("finalized %+v (%v), scalar %+v (%v)", ge, gerr, se, serr)
	}
	return nil
}

// footnote1Queries covers every aggregate, with and without a predicate
// (y < cut; cut 0 empties every group).
func footnote1Queries(cut int64) []estimator.Query {
	var qs []estimator.Query
	for _, pred := range []expr.Expr{nil, expr.Lt(expr.Col("y"), expr.IntLit(cut))} {
		qs = append(qs,
			estimator.Count(pred), estimator.Sum("x", pred), estimator.Avg("x", pred),
			estimator.Median("x", pred), estimator.Percentile("x", 0.25, pred),
			estimator.Min("x", pred), estimator.Max("x", pred))
	}
	return qs
}

var footnote1GroupBys = [][]string{{"g"}, {"h"}, {"g", "h"}}

func TestGroupedMatchesScalarWithGroupPredicate(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		stale, s := randomGrouped(seed, 60+int(seed)*7, 2+int(seed)%4, int(seed*3)%25, seed%2 == 0)
		for _, q := range footnote1Queries(seed % 10) {
			for _, g := range footnote1GroupBys {
				if err := checkFootnote1(stale, s, q, g); err != nil {
					t.Errorf("seed %d %v(%s) by %v: %v", seed, q.Agg, q.Attr, g, err)
				}
			}
		}
	}
}

// FuzzGroupedEstimators runs the footnote-1 check over random relations
// and groupings.
func FuzzGroupedEstimators(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(10), uint8(5), true)
	f.Add(int64(7), uint8(5), uint8(1), uint8(50), uint8(0), false)
	f.Add(int64(42), uint8(200), uint8(9), uint8(0), uint8(9), true)
	f.Fuzz(func(t *testing.T, seed int64, n, groups, nullPct, cut uint8, onlyStale bool) {
		stale, s := randomGrouped(seed, int(n), 1+int(groups%12), int(nullPct%60), onlyStale)
		for _, q := range footnote1Queries(int64(cut % 11)) {
			for _, g := range footnote1GroupBys {
				if err := checkFootnote1(stale, s, q, g); err != nil {
					t.Fatalf("%v(%s) by %v: %v", q.Agg, q.Attr, g, err)
				}
			}
		}
	})
}
