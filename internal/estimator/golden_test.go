package estimator_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/sampleclean/svc/internal/estimator"
	"github.com/sampleclean/svc/internal/relation"
)

// The golden test pins the estimators' output bits. Every answer is
// recorded as math.Float64bits of Value/Lo/Hi/TailProb plus K, the method
// and the group label, one line per group in key order; the fixture
// stores the SHA-256 of each case's lines and its group count. Any change
// to the row order values are consumed in, to a summation order or to a
// bootstrap's draws shows up as a digest mismatch.
//
// Regenerate (only when an output change is intended and documented):
//
//	go test ./internal/estimator -run TestEstimatorGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/estimator_golden.json")

const goldenPath = "testdata/estimator_golden.json"

type goldenCase struct {
	Lines  int    `json:"lines"`
	SHA256 string `json:"sha256"`
}

// goldenSet accumulates the canonical lines of every case.
type goldenSet map[string][]string

func f64(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func estLine(key, label string, e estimator.Estimate) string {
	return fmt.Sprintf("%x\t%s\t%s %s %s %s %s\t%d\t%s",
		key, label, f64(e.Value), f64(e.Lo), f64(e.Hi), f64(e.TailProb), f64(e.Confidence), e.K, e.Method)
}

func partialLine(key, label string, p estimator.Partial) string {
	return fmt.Sprintf("%x\t%s\t%v %s %s\t%d %s %s %s\t%d %s %s %s",
		key, label, p.Agg, p.Method, f64(p.Ratio),
		p.K, f64(p.Stale), f64(p.Sum), f64(p.SumSq),
		p.CntK, f64(p.CntStale), f64(p.CntSum), f64(p.CntSumSq))
}

// sortedKeys returns the union of the maps' keys in order.
func sortedKeys[V any](labels map[string]string, groups map[string]V) []string {
	seen := map[string]bool{}
	var ks []string
	for k := range labels {
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	for k := range groups {
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

func (gs goldenSet) errLine(name string, err error) bool {
	if err != nil {
		gs[name] = []string{"error"}
		return true
	}
	return false
}

func (gs goldenSet) groups(name string, r estimator.GroupResult, err error) {
	if gs.errLine(name, err) {
		return
	}
	var lines []string
	for _, k := range sortedKeys(r.Labels, r.Groups) {
		if e, ok := r.Groups[k]; ok {
			lines = append(lines, estLine(k, r.Labels[k], e))
		} else {
			lines = append(lines, fmt.Sprintf("%x\t%s\t-", k, r.Labels[k]))
		}
	}
	gs[name] = lines
}

func (gs goldenSet) partials(name string, r estimator.GroupPartialResult, err error) {
	if gs.errLine(name, err) {
		return
	}
	var lines []string
	for _, k := range sortedKeys(r.Labels, r.Groups) {
		if p, ok := r.Groups[k]; ok {
			lines = append(lines, partialLine(k, r.Labels[k], p))
		} else {
			lines = append(lines, fmt.Sprintf("%x\t%s\t-", k, r.Labels[k]))
		}
	}
	gs[name] = lines
}

func (gs goldenSet) exact(name string, vals map[string]float64, labels map[string]string, err error) {
	if gs.errLine(name, err) {
		return
	}
	var lines []string
	for _, k := range sortedKeys(labels, vals) {
		v, ok := vals[k]
		lines = append(lines, fmt.Sprintf("%x\t%s\t%s %v", k, labels[k], f64(v), ok))
	}
	gs[name] = lines
}

func (gs goldenSet) scalar(name string, e estimator.Estimate, err error) {
	if !gs.errLine(name, err) {
		gs[name] = []string{estLine("", "", e)}
	}
}

func (gs goldenSet) partial(name string, p estimator.Partial, err error) {
	if !gs.errLine(name, err) {
		gs[name] = []string{partialLine("", "", p)}
	}
}

// topOutliers builds an outlier partition from the k largest values of
// attr in the up-to-date view (ties broken by key).
func topOutliers(fx *estFixture, attr string, k int) *estimator.OutlierSet {
	idx := fx.truth.Schema().ColIndex(attr)
	keyIdx := fx.truth.Schema().Key()
	rows := append([]relation.Row(nil), fx.truth.Rows()...)
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i][idx].AsFloat(), rows[j][idx].AsFloat()
		if a != b {
			return a > b
		}
		return rows[i].KeyOf(keyIdx) < rows[j].KeyOf(keyIdx)
	})
	o := &estimator.OutlierSet{Fresh: relation.New(fx.truth.Schema()), Stale: relation.New(fx.stale.Schema())}
	for _, row := range rows[:k] {
		o.Fresh.MustInsert(row)
		if st, ok := fx.stale.GetByEncodedKey(row.KeyOf(keyIdx)); ok {
			o.Stale.MustInsert(st)
		}
	}
	return o
}

// goldenRun evaluates every estimator on every case of a fixture.
func goldenRun(gs goldenSet, fx *estFixture, cases []groupedCase, outlierAttr string) {
	const conf = 0.95
	s := fx.samples
	o := topOutliers(fx, outlierAttr, 20)
	for _, c := range cases {
		q, g := c.q, c.groupBy
		vals, labels, err := estimator.GroupExact(fx.stale, q, g)
		gs.exact(c.name+"/GroupExact(stale)", vals, labels, err)
		vals, labels, err = estimator.GroupExact(fx.truth, q, g)
		gs.exact(c.name+"/GroupExact(truth)", vals, labels, err)
		r, err := estimator.GroupCorr(fx.stale, s, q, g, conf)
		gs.groups(c.name+"/GroupCorr", r, err)
		r, err = estimator.GroupAQP(s, q, g, conf)
		gs.groups(c.name+"/GroupAQP", r, err)

		v, err := estimator.RunExact(fx.stale, q)
		gs.scalar(c.name+"/RunExact", estimator.Estimate{Value: v}, err)
		e, err := estimator.Corr(fx.stale, s, q, conf)
		gs.scalar(c.name+"/Corr", e, err)
		e, err = estimator.AQP(s, q, conf)
		gs.scalar(c.name+"/AQP", e, err)
		e, err = estimator.CorrWithOutliers(fx.stale, s, o, q, conf)
		gs.scalar(c.name+"/CorrWithOutliers", e, err)
		e, err = estimator.AQPWithOutliers(s, o, q, conf)
		gs.scalar(c.name+"/AQPWithOutliers", e, err)
		if !estimator.Mergeable(q.Agg) {
			continue
		}
		pr, err := estimator.GroupPartialCorr(fx.stale, s, q, g)
		gs.partials(c.name+"/GroupPartialCorr", pr, err)
		pr, err = estimator.GroupPartialAQP(s, q, g)
		gs.partials(c.name+"/GroupPartialAQP", pr, err)
		p, err := estimator.PartialCorr(fx.stale, s, q)
		gs.partial(c.name+"/PartialCorr", p, err)
		p, err = estimator.PartialAQP(s, q)
		gs.partial(c.name+"/PartialAQP", p, err)
	}
}

func TestEstimatorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Figure 5 join view")
	}
	gs := goldenSet{}
	goldenRun(gs, joinViewFixture(t), joinViewCases(), "l_extendedprice")
	goldenRun(gs, visitViewFixture(t), visitViewCases(), "visitCount")

	got := map[string]goldenCase{}
	for name, lines := range gs {
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		got[name] = goldenCase{Lines: len(lines), SHA256: hex.EncodeToString(sum[:])}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: case no longer evaluated", name)
			continue
		}
		if g != want[name] {
			t.Errorf("%s: output bits changed: %d lines %s…, want %d lines %s…",
				name, g.Lines, g.SHA256[:12], want[name].Lines, want[name].SHA256[:12])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: case missing from %s", name, goldenPath)
		}
	}
}
