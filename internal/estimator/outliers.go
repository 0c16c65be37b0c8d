package estimator

import (
	"fmt"
	"math"

	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/stats"
)

// OutlierSet is the materialized outlier partition O ⊆ S′ propagated up
// from a base-relation outlier index (paper Section 6), together with the
// corresponding stale rows of the same keys (for corrections).
type OutlierSet struct {
	// Fresh holds the up-to-date outlier rows (deterministic, sampling
	// ratio 1).
	Fresh *relation.Relation
	// Stale holds the stale view's rows for outlier keys (keys absent
	// from the stale view are simply missing here). It may contain keys
	// absent from Fresh: retired outliers whose rows left the up-to-date
	// view entirely — their removal is handled exactly, like every other
	// outlier correction.
	Stale *relation.Relation
}

// Len returns the number of distinct outlier keys (fresh rows plus
// retired stale-only rows).
func (o *OutlierSet) Len() int {
	if o == nil || o.Fresh == nil {
		return 0
	}
	n := o.Fresh.Len()
	if o.Stale != nil {
		keyIdx := o.Stale.Schema().Key()
		for _, row := range o.Stale.Rows() {
			if _, ok := o.Fresh.GetByEncodedKey(row.KeyOf(keyIdx)); !ok {
				n++
			}
		}
	}
	return n
}

// hasKeyBytes reports whether an encoded view key belongs to the outlier
// partition — present in the fresh rows or in the (possibly retired)
// stale rows. If a row is contained in both the sample and the outlier
// index, the outlier index takes precedence so the row is not double
// counted (Section 6.2): the sampled estimators skip these keys.
func (o *OutlierSet) hasKeyBytes(k []byte) bool {
	if _, ok := o.Fresh.GetByEncodedBytes(k); ok {
		return true
	}
	if o.Stale != nil {
		if _, ok := o.Stale.GetByEncodedBytes(k); ok {
			return true
		}
	}
	return false
}

// AQPWithOutliers merges the sampled estimate over S′∖O with the exact
// answer over the deterministic outlier set O (paper Section 6.3). The
// merge is exact for sums and counts (they are additive) and a
// sum/count-ratio combination for avg.
func AQPWithOutliers(s *clean.Samples, o *OutlierSet, q Query, confidence float64) (Estimate, error) {
	if o.Len() == 0 {
		return AQP(s, q, confidence)
	}
	switch q.Agg {
	case SumQ, CountQ:
		// Regular part: the sampled estimate over S′∖O.
		p := newPass(q, nil)
		p.skip = o
		gid, err := p.assign(s.Fresh, true)
		if err != nil {
			return Estimate{}, err
		}
		a, err := p.aqp(s, gid)
		if err != nil {
			return Estimate{}, err
		}
		reg, err := a.estimate(0, confidence)
		if err != nil {
			return Estimate{}, err
		}
		out, err := RunExact(o.Fresh, q)
		if err != nil {
			return Estimate{}, err
		}
		// cout is deterministic: zero variance, so the interval shifts.
		return Estimate{
			Value: reg.Value + out, Lo: reg.Lo + out, Hi: reg.Hi + out,
			Confidence: confidence, Method: "svc+aqp+outlier", K: reg.K + o.Len(),
		}, nil
	case AvgQ:
		sumEst, err := AQPWithOutliers(s, o, Query{Agg: SumQ, Attr: q.Attr, Pred: q.Pred}, confidence)
		if err != nil {
			return Estimate{}, err
		}
		cntEst, err := AQPWithOutliers(s, o, Query{Agg: CountQ, Pred: q.Pred}, confidence)
		if err != nil {
			return Estimate{}, err
		}
		if cntEst.Value == 0 {
			return Estimate{}, fmt.Errorf("estimator: zero estimated count for avg")
		}
		v := sumEst.Value / cntEst.Value
		half := ratioHalfWidth(v, sumEst, cntEst)
		return Estimate{
			Value: v, Lo: v - half, Hi: v + half,
			Confidence: confidence, Method: "svc+aqp+outlier", K: sumEst.K,
		}, nil
	default:
		// Median/percentile/min/max do not decompose additively; fall
		// back to the plain sampled estimate over the union of rows with
		// outliers included as certain members (sampling-weight-free
		// quantiles are dominated by the bulk anyway).
		return AQP(s, q, confidence)
	}
}

// CorrWithOutliers merges a sampled correction over S′∖O with the exact
// correction over O: v = c_reg + c_out, where c_out = q_O(fresh) −
// q_O(stale) is deterministic (Section 6.3 — since cout has zero
// variance, the bounds of the regular part apply unchanged, shifted).
func CorrWithOutliers(staleView *relation.Relation, s *clean.Samples, o *OutlierSet, q Query, confidence float64) (Estimate, error) {
	if o.Len() == 0 {
		return Corr(staleView, s, q, confidence)
	}
	if q.Agg != SumQ && q.Agg != CountQ && q.Agg != AvgQ {
		return Corr(staleView, s, q, confidence)
	}
	if q.Agg == AvgQ {
		sumEst, err := CorrWithOutliers(staleView, s, o, Query{Agg: SumQ, Attr: q.Attr, Pred: q.Pred}, confidence)
		if err != nil {
			return Estimate{}, err
		}
		cntEst, err := CorrWithOutliers(staleView, s, o, Query{Agg: CountQ, Pred: q.Pred}, confidence)
		if err != nil {
			return Estimate{}, err
		}
		if cntEst.Value == 0 {
			return Estimate{}, fmt.Errorf("estimator: zero estimated count for avg")
		}
		v := sumEst.Value / cntEst.Value
		half := ratioHalfWidth(v, sumEst, cntEst)
		return Estimate{
			Value: v, Lo: v - half, Hi: v + half,
			Confidence: confidence, Method: "svc+corr+outlier", K: sumEst.K,
		}, nil
	}

	// Regular part: corrected estimate over the stale view and samples
	// *excluding* outlier-key rows (retired keys too — their stale rows
	// are removed here exactly, and contribute nothing to the fresh
	// outlier part).
	reg, err := corrRest(staleView, s, o, q, confidence)
	if err != nil {
		return Estimate{}, err
	}
	// Outlier part: exact.
	outFresh, err := RunExact(o.Fresh, q)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Value: reg.Value + outFresh, Lo: reg.Lo + outFresh, Hi: reg.Hi + outFresh,
		Confidence: confidence, Method: "svc+corr+outlier", K: reg.K + o.Len(),
	}, nil
}

// corrRest is SVC+CORR over S∖O with the sample pair restricted to
// S′∖O: one pass over each input that skips the outlier keys.
func corrRest(staleView *relation.Relation, s *clean.Samples, o *OutlierSet, q Query, confidence float64) (Estimate, error) {
	p := newPass(q, nil)
	p.skip = o
	gids, err := p.assignCorr(staleView, s, false)
	if err != nil {
		return Estimate{}, err
	}
	c, err := p.corr(staleView, s, gids)
	if err != nil {
		return Estimate{}, err
	}
	rStale, err := c.baseline(0)
	if err != nil {
		return Estimate{}, err
	}
	return c.estimate(0, rStale, confidence)
}

// ratioHalfWidth propagates CI half-widths through v = sum/count by
// combining both relative uncertainties in quadrature. With an outlier
// index the sum's variance collapses (the tail is exact), so the count's
// sampling noise — negligible without the index — becomes the dominant
// term; dropping it undercovers badly on heavy-tailed data. Sum and count
// estimates are positively correlated, so quadrature is conservative.
func ratioHalfWidth(v float64, sumEst, cntEst Estimate) float64 {
	var rel2 float64
	if sumEst.Value != 0 {
		r := sumEst.HalfWidth() / math.Abs(sumEst.Value)
		rel2 += r * r
	}
	if cntEst.Value != 0 {
		r := cntEst.HalfWidth() / math.Abs(cntEst.Value)
		rel2 += r * r
	}
	return math.Abs(v) * math.Sqrt(rel2)
}

// VarianceReduction reports the fraction of the attribute's sample
// variance removed by excluding the outlier rows — a diagnostic for how
// much an outlier index helps a given query (Section 6 discussion: the
// reduction is largest for long-tailed data).
func VarianceReduction(s *clean.Samples, o *OutlierSet, attr string) (float64, error) {
	idx := s.Fresh.Schema().ColIndex(attr)
	if idx < 0 {
		return 0, fmt.Errorf("estimator: attribute %q not in sample", attr)
	}
	keyIdx := s.Fresh.Schema().Key()
	var kb relation.KeyBuf
	skip := o.Len() > 0
	var all, kept []float64
	for _, row := range s.Fresh.Rows() {
		if row[idx].IsNull() {
			continue
		}
		v := row[idx].AsFloat()
		all = append(all, v)
		if !skip || !o.hasKeyBytes(kb.Row(row, keyIdx)) {
			kept = append(kept, v)
		}
	}
	va := stats.Variance(all)
	if va == 0 {
		return 0, nil
	}
	return 1 - stats.Variance(kept)/va, nil
}
