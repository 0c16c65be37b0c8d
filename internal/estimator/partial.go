package estimator

import (
	"fmt"
	"math"

	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/stats"
)

// Partial is the mergeable sufficient-statistics form of a CLT estimate.
//
// The SVC estimators for sum and count are sums of per-row terms — trans
// values for SVC+AQP (Section 5.2.1), correspondence differences for
// SVC+CORR (Definition 4) — with Horvitz–Thompson plug-in variance
// (1−m)·Σ term². Both the point estimate and the variance are therefore
// algebraically composable across any disjoint partition of the view
// keys: partial sums add, partial sums-of-squares add, and the stale
// baseline (a sum over the partitioned stale view) adds. A fleet of
// shards each holding a hash partition of the view can answer one query
// with a single statistically-correct global confidence interval by
// exchanging Partials instead of estimates.
//
// avg is handled as the ratio of a sum statistic and a count statistic,
// each composed independently, with the interval recombined in
// quadrature (ratioHalfWidth) — ratios do not decompose into per-row
// sums, but their numerator and denominator do.
//
// min/max/median/percentile are not mergeable in this form (extremes
// lose their tail bound under composition, quantiles are not sums);
// PartialAQP and PartialCorr reject them.
type Partial struct {
	// Agg is the query's aggregate (SumQ, CountQ, or AvgQ).
	Agg Agg
	// Method names the estimator the statistics belong to ("svc+aqp" or
	// "svc+corr"). Partials of different methods do not merge.
	Method string
	// Ratio is the Bernoulli sampling ratio m. All merged partials must
	// share it (shards are configured identically).
	Ratio float64

	// Primary statistic: the trans/diff moments of the sum or count
	// query (for avg, of the sum numerator). K counts the rows behind
	// it; Stale is the shard's exact stale answer q(S) (0 for AQP);
	// Sum and SumSq are Σ term and Σ term².
	K     int
	Stale float64
	Sum   float64
	SumSq float64

	// Denominator statistic, set only for Agg == AvgQ: the count query's
	// moments, composed the same way and recombined as sum/count.
	CntK     int
	CntStale float64
	CntSum   float64
	CntSumSq float64
}

// mergeable reports why a partial cannot merge with p, or nil.
func (p Partial) mergeable(o Partial) error {
	if p.Agg != o.Agg {
		return fmt.Errorf("estimator: cannot merge partials of different aggregates (%v vs %v)", p.Agg, o.Agg)
	}
	if p.Method != o.Method {
		return fmt.Errorf("estimator: cannot merge partials of different methods (%s vs %s)", p.Method, o.Method)
	}
	if p.Ratio != o.Ratio {
		return fmt.Errorf("estimator: cannot merge partials with different sampling ratios (%g vs %g)", p.Ratio, o.Ratio)
	}
	return nil
}

// MergePartials composes per-shard partials into one: sums add, variance
// terms add, stale baselines add. It requires at least one partial and a
// consistent (Agg, Method, Ratio) across all of them. Empty-shard
// partials (zero rows) are valid identities.
func MergePartials(ps ...Partial) (Partial, error) {
	if len(ps) == 0 {
		return Partial{}, fmt.Errorf("estimator: no partials to merge")
	}
	out := ps[0]
	for _, p := range ps[1:] {
		if err := out.mergeable(p); err != nil {
			return Partial{}, err
		}
		out.K += p.K
		out.Stale += p.Stale
		out.Sum += p.Sum
		out.SumSq += p.SumSq
		out.CntK += p.CntK
		out.CntStale += p.CntStale
		out.CntSum += p.CntSum
		out.CntSumSq += p.CntSumSq
	}
	return out, nil
}

// cltEstimate finalizes one composed sum/count statistic: value is the
// (stale-baseline-shifted) sum, the interval is the Horvitz–Thompson CLT
// half-width gamma·sqrt((1−m)·Σ term²) — identical to aqpCLT/corrCLT on
// the unpartitioned sample.
func cltEstimate(stale, sum, sumsq float64, k int, ratio, confidence float64, method string) Estimate {
	value := stale + sum
	half := 0.0
	if k > 0 {
		half = stats.GammaForConfidence(confidence) * math.Sqrt((1-ratio)*sumsq)
	}
	return Estimate{
		Value: value, Lo: value - half, Hi: value + half,
		Confidence: confidence, Method: method, K: k,
	}
}

// Finalize turns a (possibly merged) partial into an estimate at the
// given confidence. For avg, the sum and count statistics recombine as a
// ratio with their relative half-widths composed in quadrature.
func (p Partial) Finalize(confidence float64) (Estimate, error) {
	switch p.Agg {
	case SumQ, CountQ:
		return cltEstimate(p.Stale, p.Sum, p.SumSq, p.K, p.Ratio, confidence, p.Method), nil
	case AvgQ:
		sumEst := cltEstimate(p.Stale, p.Sum, p.SumSq, p.K, p.Ratio, confidence, p.Method)
		cntEst := cltEstimate(p.CntStale, p.CntSum, p.CntSumSq, p.CntK, p.Ratio, confidence, p.Method)
		if cntEst.Value == 0 {
			return Estimate{}, fmt.Errorf("estimator: zero estimated count for avg")
		}
		v := sumEst.Value / cntEst.Value
		half := ratioHalfWidth(v, sumEst, cntEst)
		return Estimate{
			Value: v, Lo: v - half, Hi: v + half,
			Confidence: confidence, Method: p.Method, K: p.K,
		}, nil
	default:
		return Estimate{}, fmt.Errorf("estimator: aggregate %v is not mergeable", p.Agg)
	}
}

// Mergeable reports whether the aggregate has a partial form.
func Mergeable(agg Agg) bool {
	return agg == SumQ || agg == CountQ || agg == AvgQ
}

// PartialAQP computes the mergeable SVC+AQP statistics of one shard's
// clean sample for a sum/count/avg query. avg is decomposed into its
// sum and count statistics (both HT-scaled, so the 1/m factors cancel
// in the final ratio).
func PartialAQP(s *clean.Samples, q Query) (Partial, error) {
	ps, err := newPass(q, nil).aqpPartials(s, nil)
	if err != nil {
		return Partial{}, err
	}
	return ps[0], nil
}

// PartialCorr computes the mergeable SVC+CORR statistics of one shard:
// the exact local stale answer plus the correction's moments. avg is
// decomposed into corrected sum and corrected count (the sharded avg is
// their ratio with a quadrature interval, not the single-process
// bootstrap — see DESIGN.md "Sharded serving tier").
func PartialCorr(staleView *relation.Relation, s *clean.Samples, q Query) (Partial, error) {
	ps, err := newPass(q, nil).corrPartials(staleView, s, corrGids{})
	if err != nil {
		return Partial{}, err
	}
	return ps[0], nil
}

// primaryAgg is the aggregate whose moments fill a partial's primary
// statistic: avg's is its sum numerator.
func primaryAgg(a Agg) Agg {
	if a == AvgQ {
		return SumQ
	}
	return a
}

// aqpPartials computes every group's SVC+AQP partial: the trans-table
// moments of Ŝ′, and for avg also those of the count denominator.
func (p *pass) aqpPartials(s *clean.Samples, gid []int32) ([]Partial, error) {
	if !Mergeable(p.q.Agg) {
		return nil, fmt.Errorf("estimator: aggregate %v is not mergeable", p.q.Agg)
	}
	x, err := p.bind(s.Fresh, gid)
	if err != nil {
		return nil, err
	}
	if err := needKey(s.Fresh); err != nil {
		return nil, err
	}
	scale := 1 / s.Ratio
	mom := x.transMoments(primaryAgg(p.q.Agg), scale, p.groups())
	var cnt []moments
	if p.q.Agg == AvgQ {
		cnt = x.transMoments(CountQ, scale, p.groups())
	}
	out := make([]Partial, p.groups())
	for g := range out {
		pt := Partial{Agg: p.q.Agg, Method: "svc+aqp", Ratio: s.Ratio, K: mom[g].k, Sum: mom[g].sum, SumSq: mom[g].sumsq}
		if cnt != nil {
			pt.CntK, pt.CntSum, pt.CntSumSq = cnt[g].k, cnt[g].sum, cnt[g].sumsq
		}
		out[g] = pt
	}
	return out, nil
}

// corrPartials computes every group's SVC+CORR partial: the exact stale
// answer over the group's view rows plus the correspondence-difference
// moments, and for avg the same for the count denominator.
func (p *pass) corrPartials(staleView *relation.Relation, s *clean.Samples, gids corrGids) ([]Partial, error) {
	if !Mergeable(p.q.Agg) {
		return nil, fmt.Errorf("estimator: aggregate %v is not mergeable", p.q.Agg)
	}
	vx, err := p.bind(staleView, gids.view)
	if err != nil {
		return nil, err
	}
	fx, err := p.bind(s.Fresh, gids.fresh)
	if err != nil {
		return nil, err
	}
	sx, err := p.bind(s.Stale, gids.stale)
	if err != nil {
		return nil, err
	}
	if err := needKey(s.Fresh, s.Stale); err != nil {
		return nil, err
	}
	scale, groups := 1/s.Ratio, p.groups()
	prim := primaryAgg(p.q.Agg)
	stale, mom := vx.values(prim, groups), diffMoments(fx, sx, prim, scale, groups)
	var cstale groupVals
	var cnt []moments
	if p.q.Agg == AvgQ {
		cstale, cnt = vx.values(CountQ, groups), diffMoments(fx, sx, CountQ, scale, groups)
	}
	out := make([]Partial, groups)
	for g := range out {
		st, _ := Query{Agg: prim}.exactOf(stale.of(g))
		pt := Partial{Agg: p.q.Agg, Method: "svc+corr", Ratio: s.Ratio,
			Stale: st, K: mom[g].k, Sum: mom[g].sum, SumSq: mom[g].sumsq}
		if cnt != nil {
			pt.CntStale, _ = Query{Agg: CountQ}.exactOf(cstale.of(g))
			pt.CntK, pt.CntSum, pt.CntSumSq = cnt[g].k, cnt[g].sum, cnt[g].sumsq
		}
		out[g] = pt
	}
	return out, nil
}

// GroupPartialResult holds per-group partials keyed by the encoded group
// values, plus printable labels — the mergeable form of GroupResult.
type GroupPartialResult struct {
	Groups map[string]Partial
	Labels map[string]string
}

// GroupPartialAQP computes per-group SVC+AQP partials in one pass over
// the shard's sample. Groups absent from the sample produce no entry;
// merging unions group keys, so a group that exists on only one shard
// survives composition.
func GroupPartialAQP(s *clean.Samples, q Query, groupBy []string) (GroupPartialResult, error) {
	p := newPass(q, groupBy)
	gid, err := p.assign(s.Fresh, true)
	if err != nil {
		return GroupPartialResult{}, err
	}
	res := GroupPartialResult{Groups: make(map[string]Partial, p.groups()), Labels: p.labels()}
	if p.groups() == 0 {
		return res, nil
	}
	ps, err := p.aqpPartials(s, gid)
	if err != nil {
		return GroupPartialResult{}, err
	}
	for g, k := range p.keys {
		res.Groups[k] = ps[g]
	}
	return res, nil
}

// GroupPartialCorr computes per-group SVC+CORR partials over the union
// of group keys present in the shard's stale view and both samples.
func GroupPartialCorr(staleView *relation.Relation, s *clean.Samples, q Query, groupBy []string) (GroupPartialResult, error) {
	p := newPass(q, groupBy)
	gids, err := p.assignCorr(staleView, s, true)
	if err != nil {
		return GroupPartialResult{}, err
	}
	res := GroupPartialResult{Groups: make(map[string]Partial, p.groups()), Labels: p.labels()}
	if p.groups() == 0 {
		return res, nil
	}
	ps, err := p.corrPartials(staleView, s, gids)
	if err != nil {
		return GroupPartialResult{}, err
	}
	for g, k := range p.keys {
		res.Groups[k] = ps[g]
	}
	return res, nil
}

// MergeGroupPartials composes per-shard group partials by group key:
// keys union, and a key present on several shards merges its partials.
func MergeGroupPartials(rs ...GroupPartialResult) (GroupPartialResult, error) {
	out := GroupPartialResult{Groups: map[string]Partial{}, Labels: map[string]string{}}
	for _, r := range rs {
		for k, p := range r.Groups {
			if prev, ok := out.Groups[k]; ok {
				merged, err := MergePartials(prev, p)
				if err != nil {
					return GroupPartialResult{}, err
				}
				out.Groups[k] = merged
			} else {
				out.Groups[k] = p
			}
		}
		for k, l := range r.Labels {
			if _, ok := out.Labels[k]; !ok {
				out.Labels[k] = l
			}
		}
	}
	return out, nil
}

// Finalize turns every group's partial into an estimate. Groups whose
// finalization fails (e.g. zero estimated count for avg) are dropped,
// matching GroupAQP/GroupCorr's skip of unusable groups.
func (r GroupPartialResult) Finalize(confidence float64) (GroupResult, error) {
	out := GroupResult{Groups: map[string]Estimate{}, Labels: r.Labels}
	for k, p := range r.Groups {
		est, err := p.Finalize(confidence)
		if err != nil {
			continue
		}
		out.Groups[k] = est
	}
	return out, nil
}
