package estimator

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sampleclean/svc/internal/algebra"
	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/db"
	"github.com/sampleclean/svc/internal/expr"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/view"
)

// ---------------------------------------------------------------- fixture

func logSchema() relation.Schema {
	return relation.NewSchema([]relation.Column{
		{Name: "sessionId", Type: relation.KindInt},
		{Name: "videoId", Type: relation.KindInt},
		{Name: "bytes", Type: relation.KindFloat},
	}, "sessionId")
}

func videoSchema() relation.Schema {
	return relation.NewSchema([]relation.Column{
		{Name: "videoId", Type: relation.KindInt},
		{Name: "ownerId", Type: relation.KindInt},
	}, "videoId")
}

func viewDef() view.Definition {
	j := algebra.MustJoin(
		algebra.Scan("Log", logSchema()),
		algebra.Scan("Video", videoSchema()),
		algebra.JoinSpec{Type: algebra.Inner, On: algebra.On("videoId", "videoId"), Merge: true},
	)
	g := algebra.MustGroupBy(j, []string{"videoId", "ownerId"},
		algebra.CountAs("visitCount"),
		algebra.SumAs(expr.Col("bytes"), "totalBytes"),
	)
	return view.Definition{Name: "trafficView", Plan: g}
}

// scenario is a ready-made stale-view setup with samples and ground truth.
type scenario struct {
	d       *db.Database
	v       *view.View
	samples *clean.Samples
	truth   *relation.Relation // S′
}

// buildScenario: `videos` videos, `visits` base log records, `updates`
// staged new log records (some to new videos, a few deletions), with a
// tail exponent controlling bytes skew (0 = light tail).
func buildScenario(t testing.TB, seed int64, videos, visits, updates int, ratio, tail float64) *scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := db.New()
	vt := d.MustCreate("Video", videoSchema())
	for i := 0; i < videos; i++ {
		vt.MustInsert(relation.Row{relation.Int(int64(i)), relation.Int(rng.Int63n(8))})
	}
	lt := d.MustCreate("Log", logSchema())
	bytesFor := func() float64 {
		b := 100 + rng.Float64()*50
		if tail > 0 && rng.Float64() < 0.02 {
			b *= 1 + tail*rng.Float64()*100 // long tail
		}
		return b
	}
	for i := 0; i < visits; i++ {
		lt.MustInsert(relation.Row{relation.Int(int64(i)), relation.Int(rng.Int63n(int64(videos))), relation.Float(bytesFor())})
	}
	v, err := view.Materialize(d, viewDef())
	if err != nil {
		t.Fatal(err)
	}
	m, err := view.NewMaintainer(v)
	if err != nil {
		t.Fatal(err)
	}
	nextVideo := int64(videos)
	for i := 0; i < updates; i++ {
		switch rng.Intn(12) {
		case 0:
			vt.StageInsert(relation.Row{relation.Int(nextVideo), relation.Int(rng.Int63n(8))})
			lt.StageInsert(relation.Row{relation.Int(int64(visits + i)), relation.Int(nextVideo), relation.Float(bytesFor())})
			nextVideo++
		case 1:
			_ = lt.StageDelete(relation.Int(rng.Int63n(int64(visits))))
		default:
			lt.StageInsert(relation.Row{relation.Int(int64(visits + i)), relation.Int(rng.Int63n(int64(videos))), relation.Float(bytesFor())})
		}
	}
	c, err := clean.New(m, ratio, nil)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := c.Clean(d)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if err := snap.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	fresh, err := view.Materialize(snap, viewDef())
	if err != nil {
		t.Fatal(err)
	}
	return &scenario{d: d, v: v, samples: samples, truth: fresh.Data()}
}

// ---------------------------------------------------------------- RunExact

func TestRunExactAggregates(t *testing.T) {
	rel := relation.New(relation.NewSchema([]relation.Column{
		{Name: "k", Type: relation.KindInt},
		{Name: "x", Type: relation.KindFloat},
	}, "k"))
	for i, x := range []float64{1, 2, 3, 4, 100} {
		rel.MustInsert(relation.Row{relation.Int(int64(i)), relation.Float(x)})
	}
	cases := []struct {
		q    Query
		want float64
	}{
		{Count(nil), 5},
		{Sum("x", nil), 110},
		{Avg("x", nil), 22},
		{Median("x", nil), 3},
		{Min("x", nil), 1},
		{Max("x", nil), 100},
		{Percentile("x", 1.0, nil), 100},
		{Count(expr.Gt(expr.Col("x"), expr.FloatLit(2.5))), 3},
		{Sum("x", expr.Lt(expr.Col("x"), expr.FloatLit(10))), 10},
	}
	for _, c := range cases {
		got, err := RunExact(rel, c.q)
		if err != nil {
			t.Fatalf("%v: %v", c.q, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v(%s) = %v, want %v", c.q.Agg, c.q.Attr, got, c.want)
		}
	}
	if _, err := RunExact(rel, Sum("nope", nil)); err == nil {
		t.Error("unknown attribute should fail")
	}
	if v, _ := RunExact(relation.New(rel.Schema()), Avg("x", nil)); !math.IsNaN(v) {
		t.Error("avg of empty should be NaN")
	}
}

// ------------------------------------------------------- full-ratio sanity

// At m = 1 the samples ARE the views, so both estimators must be exact.
func TestEstimatorsExactAtFullRatio(t *testing.T) {
	sc := buildScenario(t, 1, 40, 800, 200, 1.0, 0)
	queries := []Query{
		Count(nil),
		Sum("totalBytes", nil),
		Avg("totalBytes", nil),
		Count(expr.Gt(expr.Col("visitCount"), expr.IntLit(10))),
		Sum("totalBytes", expr.Gt(expr.Col("visitCount"), expr.IntLit(5))),
	}
	for _, q := range queries {
		truth, err := RunExact(sc.truth, q)
		if err != nil {
			t.Fatal(err)
		}
		aqp, err := AQP(sc.samples, q, 0.95)
		if err != nil {
			t.Fatalf("AQP %v: %v", q.Agg, err)
		}
		if RelativeError(aqp.Value, truth) > 1e-9 {
			t.Errorf("AQP at m=1 not exact: %v vs %v", aqp.Value, truth)
		}
		corr, err := Corr(sc.v.Data(), sc.samples, q, 0.95)
		if err != nil {
			t.Fatalf("Corr %v: %v", q.Agg, err)
		}
		if RelativeError(corr.Value, truth) > 1e-9 {
			t.Errorf("Corr at m=1 not exact: %v vs %v", corr.Value, truth)
		}
	}
}

// -------------------------------------------------------- accuracy vs stale

// Both estimators must beat the no-maintenance baseline on count/sum, and
// their intervals should usually cover the truth.
func TestEstimatorsBeatStaleBaseline(t *testing.T) {
	queries := []Query{
		Count(nil),
		Sum("totalBytes", nil),
	}
	type agg struct{ stale, aqp, corr float64 }
	sums := map[Agg]*agg{CountQ: {}, SumQ: {}}
	covered, total := 0, 0
	for seed := int64(0); seed < 15; seed++ {
		sc := buildScenario(t, seed, 400, 6000, 2500, 0.15, 0)
		for _, q := range queries {
			truth, _ := RunExact(sc.truth, q)
			staleV, _ := RunExact(sc.v.Data(), q)
			aqp, err := AQP(sc.samples, q, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			corr, err := Corr(sc.v.Data(), sc.samples, q, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			a := sums[q.Agg]
			a.stale += RelativeError(staleV, truth)
			a.aqp += RelativeError(aqp.Value, truth)
			a.corr += RelativeError(corr.Value, truth)
			for _, e := range []Estimate{aqp, corr} {
				total++
				if e.Covers(truth) {
					covered++
				}
			}
		}
	}
	for f, a := range sums {
		t.Logf("%v: stale %.4f, aqp %.4f, corr %.4f (mean rel err)", f, a.stale/15, a.aqp/15, a.corr/15)
		if a.corr >= a.stale {
			t.Errorf("%v: SVC+CORR (%.4f) should beat stale (%.4f)", f, a.corr/15, a.stale/15)
		}
		if a.aqp >= a.stale {
			t.Errorf("%v: SVC+AQP (%.4f) should beat stale (%.4f)", f, a.aqp/15, a.stale/15)
		}
	}
	coverage := float64(covered) / float64(total)
	if coverage < 0.80 {
		t.Errorf("95%% intervals covered truth only %.0f%% of the time", coverage*100)
	}
}

// Section 5.2.2: with small update fractions, CORR is more accurate than
// AQP (the correspondence correlation dominates).
func TestCorrBeatsAQPWhenFresh(t *testing.T) {
	var aqpErr, corrErr float64
	q := Sum("totalBytes", nil)
	for seed := int64(0); seed < 12; seed++ {
		sc := buildScenario(t, seed, 80, 3000, 120, 0.1, 0) // 4% updates
		truth, _ := RunExact(sc.truth, q)
		aqp, err := AQP(sc.samples, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		corr, err := Corr(sc.v.Data(), sc.samples, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		aqpErr += RelativeError(aqp.Value, truth)
		corrErr += RelativeError(corr.Value, truth)
	}
	t.Logf("mean rel err: aqp %.4f corr %.4f", aqpErr/12, corrErr/12)
	if corrErr >= aqpErr {
		t.Errorf("CORR (%.4f) should beat AQP (%.4f) at low staleness", corrErr/12, aqpErr/12)
	}
}

func TestAdvisePrefersCorrWhenFresh(t *testing.T) {
	sc := buildScenario(t, 3, 80, 3000, 100, 0.2, 0)
	choice, err := Advise(sc.samples, Sum("totalBytes", nil))
	if err != nil {
		t.Fatal(err)
	}
	if choice != "svc+corr" {
		t.Errorf("Advise = %q at 3%% staleness, want svc+corr", choice)
	}
}

// ----------------------------------------------------------- selectivity

// Section 5.2.3: interval width grows like 1/sqrt(selectivity).
func TestSelectivityWidensIntervals(t *testing.T) {
	// Section 5.2.3: the RELATIVE interval width scales like 1/sqrt(p).
	var wideRel, narrowRel float64
	for seed := int64(0); seed < 6; seed++ {
		sc := buildScenario(t, 5+seed, 200, 8000, 500, 0.2, 0)
		wide, err := AQP(sc.samples, Sum("totalBytes", nil), 0.95)
		if err != nil {
			t.Fatal(err)
		}
		wideTruth, _ := RunExact(sc.truth, Sum("totalBytes", nil))
		// Predicate selecting roughly a tenth of the videos.
		narrowQ := Sum("totalBytes", expr.Lt(expr.Col("videoId"), expr.IntLit(20)))
		narrow, err := AQP(sc.samples, narrowQ, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		narrowTruth, _ := RunExact(sc.truth, narrowQ)
		wideRel += wide.HalfWidth() / wideTruth
		narrowRel += narrow.HalfWidth() / narrowTruth
	}
	t.Logf("relative CI half-width: full %.4f, selective %.4f", wideRel/6, narrowRel/6)
	if narrowRel <= wideRel {
		t.Errorf("selective query relative CI (%.4f) should exceed full-relation CI (%.4f)",
			narrowRel/6, wideRel/6)
	}
}

// -------------------------------------------------------------- median &c

func TestMedianEstimates(t *testing.T) {
	sc := buildScenario(t, 7, 150, 4000, 800, 0.3, 0)
	q := Median("totalBytes", nil)
	truth, _ := RunExact(sc.truth, q)
	staleV, _ := RunExact(sc.v.Data(), q)
	aqp, err := AQP(sc.samples, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := Corr(sc.v.Data(), sc.samples, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if aqp.Lo > aqp.Hi || corr.Lo > corr.Hi {
		t.Fatal("degenerate bootstrap intervals")
	}
	// Both should be in the right ballpark (medians are robust).
	for _, e := range []Estimate{aqp, corr} {
		if RelativeError(e.Value, truth) > 0.5 {
			t.Errorf("%s median estimate %v far from truth %v (stale %v)", e.Method, e.Value, truth, staleV)
		}
	}
}

func TestMinMaxCorrection(t *testing.T) {
	// Appendix 12.1.1: the max correction adds the largest row-by-row
	// growth to the stale max — deliberately conservative (the paper
	// claims a probability bound, not a tighter point estimate). Under an
	// insert-heavy workload it must (a) never fall below the stale max,
	// (b) never fall below any sampled up-to-date value, and (c) come
	// with a well-formed Cantelli tail bound.
	for seed := int64(0); seed < 8; seed++ {
		sc := buildScenario(t, 9+seed, 100, 3000, 900, 0.3, 0)
		q := Max("totalBytes", nil)
		est, err := Corr(sc.v.Data(), sc.samples, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if est.TailProb < 0 || est.TailProb > 1 {
			t.Errorf("tail probability %v outside [0,1]", est.TailProb)
		}
		staleV, _ := RunExact(sc.v.Data(), q)
		if est.Value < staleV-1e-9 {
			t.Errorf("corrected max %v below stale max %v under inserts", est.Value, staleV)
		}
		sampleMax, _ := RunExact(sc.samples.Fresh, q)
		if est.Value < sampleMax-1e-9 {
			t.Errorf("corrected max %v below sampled evidence %v", est.Value, sampleMax)
		}
	}
	// Min: sanity only (a new global minimum is invisible unless
	// sampled); the bound fields must still be well-formed.
	sc := buildScenario(t, 29, 100, 3000, 600, 0.3, 0)
	est, err := Corr(sc.v.Data(), sc.samples, Min("totalBytes", nil), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.TailProb < 0 || est.TailProb > 1 {
		t.Errorf("min tail probability %v outside [0,1]", est.TailProb)
	}
	if !math.IsInf(est.Hi, 1) || est.Lo != est.Value {
		t.Errorf("min bound shape wrong: [%v,%v] value %v", est.Lo, est.Hi, est.Value)
	}
}

// ---------------------------------------------------------------- groups

func TestGroupEstimates(t *testing.T) {
	sc := buildScenario(t, 11, 60, 2000, 800, 0.25, 0)
	q := Sum("totalBytes", nil)
	groupBy := []string{"ownerId"}
	truth, _, err := GroupExact(sc.truth, q, groupBy)
	if err != nil {
		t.Fatal(err)
	}
	staleExact, _, err := GroupExact(sc.v.Data(), q, groupBy)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := GroupCorr(sc.v.Data(), sc.samples, q, groupBy, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	aqp, err := GroupAQP(sc.samples, q, groupBy, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(corr.Groups) == 0 || len(aqp.Groups) == 0 {
		t.Fatal("no group estimates")
	}
	corrMed, _ := GroupErrorStats(corr.Groups, truth)
	staleMed, _ := GroupStaleErrorStats(staleExact, truth)
	t.Logf("median group error: stale %.4f corr %.4f", staleMed, corrMed)
	if corrMed >= staleMed {
		t.Errorf("per-group CORR (%.4f) should beat stale (%.4f)", corrMed, staleMed)
	}
}

// ---------------------------------------------------------------- outliers

func buildOutlierSet(t *testing.T, sc *scenario, attr string, k int) *OutlierSet {
	t.Helper()
	type kv struct {
		key string
		val float64
	}
	idx := sc.truth.Schema().ColIndex(attr)
	var all []kv
	keyIdx := sc.truth.Schema().Key()
	for _, row := range sc.truth.Rows() {
		all = append(all, kv{row.KeyOf(keyIdx), row[idx].AsFloat()})
	}
	// top-k by value
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].val > all[i].val {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	if k > len(all) {
		k = len(all)
	}
	o := &OutlierSet{Fresh: relation.New(sc.truth.Schema()), Stale: relation.New(sc.v.Schema())}
	for _, e := range all[:k] {
		row, _ := sc.truth.GetByEncodedKey(e.key)
		o.Fresh.MustInsert(row)
		if st, ok := sc.v.Data().GetByEncodedKey(e.key); ok {
			o.Stale.MustInsert(st)
		}
	}
	return o
}

func TestOutlierMergeImprovesSkewedEstimates(t *testing.T) {
	q := Sum("totalBytes", nil)
	var plain, merged float64
	for seed := int64(0); seed < 10; seed++ {
		sc := buildScenario(t, seed, 150, 4000, 800, 0.1, 5) // heavy tail
		truth, _ := RunExact(sc.truth, q)
		o := buildOutlierSet(t, sc, "totalBytes", 20)
		a1, err := AQP(sc.samples, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := AQPWithOutliers(sc.samples, o, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		plain += RelativeError(a1.Value, truth)
		merged += RelativeError(a2.Value, truth)
	}
	t.Logf("mean rel err: plain %.4f, with outlier index %.4f", plain/10, merged/10)
	if merged >= plain {
		t.Errorf("outlier merge (%.4f) should reduce error on skewed data (plain %.4f)", merged/10, plain/10)
	}
}

func TestOutlierMergeExactAtFullRatio(t *testing.T) {
	sc := buildScenario(t, 21, 40, 800, 200, 1.0, 3)
	o := buildOutlierSet(t, sc, "totalBytes", 5)
	for _, q := range []Query{Sum("totalBytes", nil), Count(nil), Avg("totalBytes", nil)} {
		truth, _ := RunExact(sc.truth, q)
		est, err := AQPWithOutliers(sc.samples, o, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if RelativeError(est.Value, truth) > 1e-9 {
			t.Errorf("%v with outliers at m=1: %v vs %v", q.Agg, est.Value, truth)
		}
		cEst, err := CorrWithOutliers(sc.v.Data(), sc.samples, o, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if RelativeError(cEst.Value, truth) > 1e-9 {
			t.Errorf("corr %v with outliers at m=1: %v vs %v", q.Agg, cEst.Value, truth)
		}
	}
}

func TestVarianceReduction(t *testing.T) {
	sc := buildScenario(t, 23, 150, 4000, 400, 0.5, 5)
	o := buildOutlierSet(t, sc, "totalBytes", 15)
	vr, err := VarianceReduction(sc.samples, o, "totalBytes")
	if err != nil {
		t.Fatal(err)
	}
	if vr <= 0 || vr > 1 {
		t.Errorf("variance reduction %v should be in (0,1] on skewed data", vr)
	}
}

// ---------------------------------------------------------------- select

func TestCleanSelectAtFullRatio(t *testing.T) {
	sc := buildScenario(t, 31, 50, 1000, 300, 1.0, 0)
	pred := expr.Gt(expr.Col("visitCount"), expr.IntLit(5))
	res, err := CleanSelect(sc.v.Data(), sc.samples, pred, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// At m=1 the cleaned selection equals the exact selection on S′.
	boundTruth, _ := pred.Bind(sc.truth.Schema())
	want := relation.New(sc.truth.Schema())
	for _, row := range sc.truth.Rows() {
		if boundTruth.Eval(row).AsBool() {
			want.MustInsert(row)
		}
	}
	if res.Rows.Len() != want.Len() {
		t.Fatalf("cleaned selection has %d rows, want %d", res.Rows.Len(), want.Len())
	}
	keyIdx := want.Schema().Key()
	for _, row := range want.Rows() {
		got, ok := res.Rows.GetByEncodedKey(row.KeyOf(keyIdx))
		if !ok {
			t.Fatalf("row %v missing", row)
		}
		for i := range row {
			if math.Abs(got[i].AsFloat()-row[i].AsFloat()) > 1e-6 {
				t.Fatalf("row %v wrong: %v", row, got)
			}
		}
	}
}

func TestCleanSelectEstimatesClasses(t *testing.T) {
	sc := buildScenario(t, 33, 60, 1500, 600, 0.5, 0)
	pred := expr.Gt(expr.Col("visitCount"), expr.IntLit(2))
	res, err := CleanSelect(sc.v.Data(), sc.samples, pred, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updated.Value < 0 || res.Added.Value < 0 || res.Removed.Value < 0 {
		t.Error("negative class estimates")
	}
	// With many inserts, some updated or added rows must be detected.
	if res.Updated.Value+res.Added.Value == 0 {
		t.Error("expected non-zero updated/added estimates under heavy updates")
	}
}

// ------------------------------------------------------------- CI scaling

// Interval width shrinks like 1/sqrt(m) as the sampling ratio grows.
func TestIntervalShrinksWithSampleSize(t *testing.T) {
	q := Sum("totalBytes", nil)
	var prev float64 = math.Inf(1)
	for _, ratio := range []float64{0.05, 0.2, 0.8} {
		var width float64
		for seed := int64(0); seed < 5; seed++ {
			sc := buildScenario(t, 41+seed, 100, 3000, 600, ratio, 0)
			est, err := AQP(sc.samples, q, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			width += est.HalfWidth()
		}
		width /= 5
		if width >= prev {
			t.Errorf("CI width should shrink with ratio: %v at %v (prev %v)", width, ratio, prev)
		}
		prev = width
	}
}

// Estimator variance sanity via stats helpers: the diff variance of
// corresponding samples is far below the fresh-sample variance when
// staleness is low — the quantitative heart of Section 5.2.2.
func TestCorrespondenceVarianceAdvantage(t *testing.T) {
	sc := buildScenario(t, 51, 100, 4000, 150, 0.3, 0)
	q := Sum("totalBytes", nil)
	p := newPass(q, nil)
	fx, err := p.bind(sc.samples.Fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := p.bind(sc.samples.Stale, nil)
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 / sc.samples.Ratio
	variance := func(m moments) float64 {
		mean := m.sum / float64(m.k)
		return m.sumsq/float64(m.k) - mean*mean
	}
	vDiff := variance(diffMoments(fx, sx, SumQ, scale, 1)[0])
	vFresh := variance(fx.transMoments(SumQ, scale, 1)[0])
	if vDiff >= vFresh/2 {
		t.Errorf("diff variance %v should be far below sample variance %v at low staleness", vDiff, vFresh)
	}
}
