package estimator

import (
	"fmt"
	"math"

	"github.com/sampleclean/svc/internal/expr"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/stats"
)

// Agg enumerates the aggregate functions supported on queries against a
// view.
type Agg uint8

// Query aggregates. Count ignores Attr.
const (
	CountQ Agg = iota
	SumQ
	AvgQ
	MedianQ
	PercentileQ
	MinQ
	MaxQ
)

// String returns the SQL-ish name.
func (a Agg) String() string {
	return [...]string{"count", "sum", "avg", "median", "percentile", "min", "max"}[a]
}

// Query is an aggregate query over a view:
//
//	SELECT agg(attr) FROM view WHERE pred
//
// as in the paper's Problem 2. A group-by query is this Query with the
// group predicate folded into Pred, as the paper does (footnote 1); the
// Group* estimators answer every group in one pass (grouped.go).
type Query struct {
	Agg  Agg
	Attr string // aggregation attribute; unused for CountQ
	// Pct is the percentile in (0,1) for PercentileQ.
	Pct float64
	// Pred restricts the rows (nil means all rows).
	Pred expr.Expr
}

// Sum returns SELECT sum(attr) WHERE pred.
func Sum(attr string, pred expr.Expr) Query { return Query{Agg: SumQ, Attr: attr, Pred: pred} }

// Count returns SELECT count(1) WHERE pred.
func Count(pred expr.Expr) Query { return Query{Agg: CountQ, Pred: pred} }

// Avg returns SELECT avg(attr) WHERE pred.
func Avg(attr string, pred expr.Expr) Query { return Query{Agg: AvgQ, Attr: attr, Pred: pred} }

// Median returns SELECT median(attr) WHERE pred.
func Median(attr string, pred expr.Expr) Query { return Query{Agg: MedianQ, Attr: attr, Pred: pred} }

// Percentile returns SELECT percentile(attr, pct) WHERE pred.
func Percentile(attr string, pct float64, pred expr.Expr) Query {
	return Query{Agg: PercentileQ, Attr: attr, Pct: pct, Pred: pred}
}

// Min returns SELECT min(attr) WHERE pred.
func Min(attr string, pred expr.Expr) Query { return Query{Agg: MinQ, Attr: attr, Pred: pred} }

// Max returns SELECT max(attr) WHERE pred.
func Max(attr string, pred expr.Expr) Query { return Query{Agg: MaxQ, Attr: attr, Pred: pred} }

// RunExact evaluates the query exactly over a full relation. It serves as
// the ground truth q(S′), the stale baseline q(S), and the rstale term of
// SVC+CORR.
func RunExact(rel *relation.Relation, q Query) (float64, error) {
	x, err := newPass(q, nil).bind(rel, nil)
	if err != nil {
		return 0, err
	}
	return q.exactOf(x.values(q.Agg, 1).of(0))
}

// exactOf evaluates the aggregate over the matching values of a relation
// (input.values): the attribute of every row satisfying the predicate,
// NULLs dropped, or 1 per matching row for COUNT.
func (q Query) exactOf(vals []float64) (float64, error) {
	switch q.Agg {
	case CountQ:
		return float64(len(vals)), nil
	case SumQ:
		return stats.Sum(vals), nil
	case AvgQ:
		if len(vals) == 0 {
			return math.NaN(), nil
		}
		return stats.Mean(vals), nil
	case MedianQ:
		return stats.Median(vals), nil
	case PercentileQ:
		return stats.Quantile(vals, q.Pct), nil
	case MinQ:
		if len(vals) == 0 {
			return math.NaN(), nil
		}
		lo := vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
		}
		return lo, nil
	case MaxQ:
		if len(vals) == 0 {
			return math.NaN(), nil
		}
		hi := vals[0]
		for _, v := range vals {
			if v > hi {
				hi = v
			}
		}
		return hi, nil
	default:
		return 0, fmt.Errorf("estimator: unknown aggregate %v", q.Agg)
	}
}

// Estimate is an approximate query answer with its uncertainty.
type Estimate struct {
	// Value is the point estimate of q(S′).
	Value float64
	// Lo and Hi bound the estimate at the stated confidence (CLT or
	// bootstrap, depending on Method). For min/max they carry the
	// Cantelli-bounded range and TailProb is set instead.
	Lo, Hi float64
	// Confidence is the nominal coverage of [Lo, Hi] (e.g. 0.95).
	Confidence float64
	// TailProb, for min/max only, is the Cantelli bound on the
	// probability that an element beyond Value exists in the unsampled
	// view.
	TailProb float64
	// Method names the estimator ("svc+aqp", "svc+corr").
	Method string
	// K is the number of sample rows the estimate was computed from.
	K int
	// AsOfEpoch is the publication epoch of the catalog version the
	// estimate was computed against (0 when the query did not run through
	// the snapshot serving layer). Within one serving session it is
	// monotonically non-decreasing across successive queries: a reader can
	// use it to detect which maintenance boundary an answer reflects.
	AsOfEpoch uint64
}

// HalfWidth returns (Hi−Lo)/2.
func (e Estimate) HalfWidth() float64 { return (e.Hi - e.Lo) / 2 }

// Covers reports whether the interval contains v.
func (e Estimate) Covers(v float64) bool { return v >= e.Lo && v <= e.Hi }

// RelativeError returns |est−truth|/|truth| (using a small floor on the
// denominator so zero-valued truths do not blow up), the paper's accuracy
// metric.
func RelativeError(est, truth float64) float64 {
	denom := math.Abs(truth)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(est-truth) / denom
}
