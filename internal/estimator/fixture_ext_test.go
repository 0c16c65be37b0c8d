package estimator_test

import (
	"math/rand"
	"testing"

	"github.com/sampleclean/svc/internal/algebra"
	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/db"
	"github.com/sampleclean/svc/internal/estimator"
	"github.com/sampleclean/svc/internal/expr"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/tpcd"
	"github.com/sampleclean/svc/internal/view"
)

// estFixture is a stale view with its corresponding samples and the
// up-to-date view, every relation in primary-key order so that the
// estimators see the same row order on every run.
type estFixture struct {
	stale   *relation.Relation
	samples *clean.Samples
	truth   *relation.Relation
}

// canonical returns a key-ordered copy of rel.
func canonical(rel *relation.Relation) *relation.Relation {
	c := rel.Clone()
	c.SortByKey()
	return c
}

// buildFixture materializes def over d, stages the updates, cleans a
// sample at ratio and recomputes the truth.
func buildFixture(t testing.TB, d *db.Database, def view.Definition, stage func() error, ratio float64) *estFixture {
	t.Helper()
	v, err := view.Materialize(d, def)
	if err != nil {
		t.Fatal(err)
	}
	m, err := view.NewMaintainer(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := stage(); err != nil {
		t.Fatal(err)
	}
	c, err := clean.New(m, ratio, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Clean(d)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if err := snap.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	fresh, err := view.Materialize(snap, def)
	if err != nil {
		t.Fatal(err)
	}
	return &estFixture{
		stale:   canonical(v.Data()),
		samples: &clean.Samples{Fresh: canonical(s.Fresh), Stale: canonical(s.Stale), Ratio: s.Ratio},
		truth:   canonical(fresh.Data()),
	}
}

// joinViewFixture is the Figure 5 setting at the churn benchmark's size:
// the TPC-D lineitem⋈orders join view over 3000 orders and 500
// customers, Zipf z=2, 2% updates, a 10% sample.
func joinViewFixture(t testing.TB) *estFixture {
	t.Helper()
	cfg := tpcd.DefaultConfig()
	cfg.Orders, cfg.Customers, cfg.Z, cfg.Seed = 3000, 500, 2, 7
	gen := tpcd.NewGenerator(cfg)
	d, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return buildFixture(t, d, tpcd.JoinView(), func() error { return gen.StageUpdates(d, 0.02) }, 0.10)
}

// visitViewFixture is the dashboard's video log: visitView groups the
// Log⋈Video join per video (4000 videos, 50 owners, 30000 sessions), with
// 2% new sessions and a few deletes staged and a 10% sample.
func visitViewFixture(t testing.TB) *estFixture {
	t.Helper()
	const videos, visits = 4000, 30000
	rng := rand.New(rand.NewSource(11))
	d := db.New()
	videoSchema := relation.NewSchema([]relation.Column{
		{Name: "videoId", Type: relation.KindInt},
		{Name: "ownerId", Type: relation.KindInt},
		{Name: "duration", Type: relation.KindFloat},
	}, "videoId")
	logSchema := relation.NewSchema([]relation.Column{
		{Name: "sessionId", Type: relation.KindInt},
		{Name: "videoId", Type: relation.KindInt},
	}, "sessionId")
	vt := d.MustCreate("Video", videoSchema)
	for i := 0; i < videos; i++ {
		vt.MustInsert(relation.Row{relation.Int(int64(i)), relation.Int(rng.Int63n(50)), relation.Float(rng.Float64() * 3)})
	}
	lt := d.MustCreate("Log", logSchema)
	for i := 0; i < visits; i++ {
		lt.MustInsert(relation.Row{relation.Int(int64(i)), relation.Int(rng.Int63n(videos))})
	}
	def := view.Definition{Name: "visitView", Plan: algebra.MustGroupBy(
		algebra.MustJoin(
			algebra.Scan("Log", logSchema),
			algebra.Scan("Video", videoSchema),
			algebra.JoinSpec{Type: algebra.Inner, On: algebra.On("videoId", "videoId"), Merge: true},
		),
		[]string{"videoId", "ownerId"},
		algebra.CountAs("visitCount"),
		algebra.SumAs(expr.Col("duration"), "totalDuration"),
	)}
	stage := func() error {
		for i := 0; i < visits/50; i++ {
			if err := lt.StageInsert(relation.Row{relation.Int(int64(visits + i)), relation.Int(rng.Int63n(videos))}); err != nil {
				return err
			}
		}
		for i := 0; i < visits/300; i++ {
			if err := lt.StageDelete(relation.Int(int64(i * 300))); err != nil {
				return err
			}
		}
		return nil
	}
	return buildFixture(t, d, def, stage, 0.10)
}

// groupedCase is one grouped query of the golden and benchmark sets.
type groupedCase struct {
	name    string
	q       estimator.Query
	groupBy []string
}

// joinViewCases are the 12 Figure 5 queries plus the order-statistic
// aggregates over the same view.
func joinViewCases() []groupedCase {
	var cs []groupedCase
	for _, jq := range tpcd.JoinViewQueries() {
		cs = append(cs, groupedCase{"fig5/" + jq.Name, jq.Query, jq.GroupBy})
	}
	rev := "l_extendedprice"
	early := expr.Lt(expr.Col("o_orderdate"), expr.IntLit(180))
	return append(cs,
		groupedCase{"joinView/median", estimator.Median(rev, nil), []string{"o_orderpriority"}},
		groupedCase{"joinView/median-pred", estimator.Median(rev, early), []string{"l_returnflag"}},
		groupedCase{"joinView/p90", estimator.Percentile(rev, 0.9, early), []string{"o_orderstatus"}},
		groupedCase{"joinView/avg-pred", estimator.Avg(rev, early), []string{"l_returnflag", "o_orderstatus"}},
		groupedCase{"joinView/min", estimator.Min(rev, nil), []string{"o_orderpriority"}},
		groupedCase{"joinView/max", estimator.Max(rev, nil), []string{"l_returnflag"}},
	)
}

// visitViewCases are the dashboard's two visitView GROUP BYs.
func visitViewCases() []groupedCase {
	owner := []string{"ownerId"}
	below := func(n int64) estimator.Query {
		return estimator.Sum("visitCount", expr.Lt(expr.Col("videoId"), expr.IntLit(n)))
	}
	return []groupedCase{
		{"visitView/count", estimator.Count(nil), owner},
		{"visitView/sum-1000", below(1000), owner},
		{"visitView/sum-3100", below(3100), owner},
	}
}

// BenchmarkGroupCorr times SVC+CORR on each Figure 5 query over the join
// view (one grouped pass per input).
func BenchmarkGroupCorr(b *testing.B) {
	fx := joinViewFixture(b)
	for _, c := range joinViewCases()[:12] {
		b.Run(c.name[len("fig5/"):], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := estimator.GroupCorr(fx.stale, fx.samples, c.q, c.groupBy, 0.95); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGroupCorrAllocsIndependentOfViewSize guards the one-pass grouped
// kernel: a GROUP BY allocates per group and per input, never per view
// row. Doubling the stale view (the copies land in the same groups) must
// not add allocations, and every Figure 5 query must stay far below one
// allocation per view row.
func TestGroupCorrAllocsIndependentOfViewSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; run without -race")
	}
	fx := joinViewFixture(t)
	double := relation.NewSized(fx.stale.Schema(), 2*fx.stale.Len())
	orderKey := fx.stale.Schema().ColIndex("l_orderkey")
	for _, row := range fx.stale.Rows() {
		double.MustInsert(row)
		cp := row.Clone()
		cp[orderKey] = relation.Int(row[orderKey].AsInt() + 1_000_000)
		double.MustInsert(cp)
	}
	limit := float64(fx.stale.Len()) / 4
	for _, c := range joinViewCases()[:12] {
		allocs := func(view *relation.Relation) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := estimator.GroupCorr(view, fx.samples, c.q, c.groupBy, 0.95); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, big := allocs(fx.stale), allocs(double)
		t.Logf("%s: %.0f allocs/call on %d view rows, %.0f on %d", c.name, small, fx.stale.Len(), big, double.Len())
		if small >= limit {
			t.Errorf("%s: %.0f allocs/call, want < |view|/4 = %.0f", c.name, small, limit)
		}
		if big > small+4 {
			t.Errorf("%s: %.0f allocs/call on the doubled view vs %.0f: allocation grows with the view", c.name, big, small)
		}
	}
}
