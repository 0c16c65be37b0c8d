package estimator

import (
	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/stats"
)

// GroupResult holds per-group answers keyed by the encoded group values.
// Group-by queries are what the paper's evaluation runs (it folds group-by
// into the predicate, footnote 1); answering every group in one pass over
// each input (grouped.go) is equivalent and much cheaper than one
// predicate scan per group.
type GroupResult struct {
	// Groups maps the encoded group key to its estimate.
	Groups map[string]Estimate
	// Labels maps the encoded group key to a printable form.
	Labels map[string]string
}

// GroupAQP runs SVC+AQP per group of the clean sample. Groups absent from
// the sample produce no entry (the scaled estimate would be zero), nor do
// groups without a usable estimate (e.g. avg over no matching rows).
func GroupAQP(s *clean.Samples, q Query, groupBy []string, confidence float64) (GroupResult, error) {
	p := newPass(q, groupBy)
	gid, err := p.assign(s.Fresh, true)
	if err != nil {
		return GroupResult{}, err
	}
	res := GroupResult{Groups: make(map[string]Estimate, p.groups()), Labels: p.labels()}
	a, err := p.aqp(s, gid)
	if err != nil {
		return res, nil // the query fails alike in every group
	}
	for g, k := range p.keys {
		if est, err := a.estimate(g, confidence); err == nil {
			res.Groups[k] = est
		}
	}
	return res, nil
}

// GroupCorr runs SVC+CORR per group over the groups of the stale view and
// the clean sample: each group is corrected independently, from the
// group's stale answer and the group's rows of both samples. Groups
// without a usable estimate produce no entry.
func GroupCorr(staleView *relation.Relation, s *clean.Samples, q Query, groupBy []string, confidence float64) (GroupResult, error) {
	p := newPass(q, groupBy)
	gids, err := p.assignCorr(staleView, s, false)
	if err != nil {
		return GroupResult{}, err
	}
	res := GroupResult{Groups: make(map[string]Estimate, p.groups()), Labels: p.labels()}
	c, err := p.corr(staleView, s, gids)
	if err != nil {
		return res, nil // the query fails alike in every group
	}
	for g, k := range p.keys {
		rStale, err := c.baseline(g)
		if err != nil {
			continue
		}
		if est, err := c.estimate(g, rStale, confidence); err == nil {
			res.Groups[k] = est
		}
	}
	return res, nil
}

// GroupExact evaluates the group query exactly (truth / stale baselines).
func GroupExact(rel *relation.Relation, q Query, groupBy []string) (map[string]float64, map[string]string, error) {
	p := newPass(q, groupBy)
	gid, err := p.assign(rel, true)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]float64, p.groups())
	if p.groups() == 0 {
		return out, p.labels(), nil
	}
	x, err := p.bind(rel, gid)
	if err != nil {
		return nil, nil, err
	}
	vals := x.values(q.Agg, p.groups())
	for g, k := range p.keys {
		v, err := q.exactOf(vals.of(g))
		if err != nil {
			return nil, nil, err
		}
		out[k] = v
	}
	return out, p.labels(), nil
}

// GroupErrorStats compares per-group estimates against exact answers and
// returns the paper's accuracy metrics: median and max relative error over
// groups. Groups present in truth but absent from est count as 100%
// error, and every per-group error saturates at 100% ("completely wrong")
// so near-zero truth denominators cannot produce unbounded ratios; the
// comparison runs over the union of group keys.
func GroupErrorStats(est map[string]Estimate, truth map[string]float64) (median, max float64) {
	var errs []float64
	for k, tv := range truth {
		if e, ok := est[k]; ok {
			errs = append(errs, capErr(RelativeError(e.Value, tv)))
		} else {
			errs = append(errs, 1)
		}
	}
	for k, e := range est {
		if _, ok := truth[k]; !ok {
			errs = append(errs, capErr(RelativeError(e.Value, 0)))
		}
	}
	if len(errs) == 0 {
		return 0, 0
	}
	max = errs[0]
	for _, e := range errs {
		if e > max {
			max = e
		}
	}
	return stats.Median(errs), max
}

// GroupCoverage counts per-group CI hits over the union of group keys: a
// truth group is covered when its estimate's interval contains the exact
// answer; estimated groups with no true counterpart count as misses. The
// workload matrix reports covered/total as informational per-group
// coverage (the guarantee is conditional — an unsampled changed group is
// legitimately uncovered).
func GroupCoverage(est map[string]Estimate, truth map[string]float64) (covered, total int) {
	for k, tv := range truth {
		total++
		if e, ok := est[k]; ok && e.Covers(tv) {
			covered++
		}
	}
	for k := range est {
		if _, ok := truth[k]; !ok {
			total++
		}
	}
	return covered, total
}

// capErr saturates a relative error at 100%.
func capErr(e float64) float64 {
	if e > 1 {
		return 1
	}
	return e
}

// GroupStaleErrorStats compares the stale exact answers against the truth
// (the "No Maintenance" baseline), with the same 100% saturation as
// GroupErrorStats.
func GroupStaleErrorStats(stale, truth map[string]float64) (median, max float64) {
	var errs []float64
	for k, tv := range truth {
		if sv, ok := stale[k]; ok {
			errs = append(errs, capErr(RelativeError(sv, tv)))
		} else {
			errs = append(errs, 1)
		}
	}
	for k, sv := range stale {
		if _, ok := truth[k]; !ok {
			errs = append(errs, capErr(RelativeError(sv, 0)))
		}
	}
	if len(errs) == 0 {
		return 0, 0
	}
	max = errs[0]
	for _, e := range errs {
		if e > max {
			max = e
		}
	}
	return stats.Median(errs), max
}
