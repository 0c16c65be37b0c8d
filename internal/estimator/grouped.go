package estimator

import (
	"fmt"
	"strings"

	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/expr"
	"github.com/sampleclean/svc/internal/relation"
)

// One-pass grouped evaluation. The paper answers a GROUP BY by folding
// "group = v" into the predicate (footnote 1); evaluated literally, or by
// copying each group's rows into relations of their own, that costs a
// pass per group. Every estimator here instead walks each input relation
// once: the predicate is bound and evaluated (vectorized) once, each row
// is mapped to a dense group id, and the per-group terms the estimators
// need — matching values, trans-table moments, correspondence
// differences — accumulate row by row. A scalar query is the case with no
// group columns: every row is in group 0.
//
// Within a group, rows are consumed in the relation's row order, the
// order the scalar estimator consumes them in, so sums, means and the
// seeded bootstrap draws are bit-identical to running the scalar
// estimator on the group's rows alone.

// pass is one query's group-id space, shared by all of its inputs.
type pass struct {
	q    Query
	cols []string    // group columns; none for a scalar query
	skip *OutlierSet // rows whose view key is in the set belong to no group
	ids  map[string]int32
	keys []string // dense id → encoded group key
	lbls []string // dense id → printable group values
	kb   relation.KeyBuf
}

func newPass(q Query, groupBy []string) *pass {
	p := &pass{q: q, cols: groupBy}
	if len(groupBy) == 0 {
		p.keys, p.lbls = []string{""}, []string{""}
	} else {
		p.ids = map[string]int32{}
	}
	return p
}

func (p *pass) groups() int { return len(p.keys) }

// labels returns the encoded-key → label map of every group seen.
func (p *pass) labels() map[string]string {
	m := make(map[string]string, len(p.keys))
	for g, k := range p.keys {
		m[k] = p.lbls[g]
	}
	return m
}

// assign maps every row of rel to its group id. Skipped rows get -1, and
// so do rows of groups no earlier input registered unless register is
// set. A group's key and label are allocated once, when it first
// appears; every other row is an allocation-free lookup. A nil
// result means every row is in group 0 (a scalar pass with no skip set).
func (p *pass) assign(rel *relation.Relation, register bool) ([]int32, error) {
	idx := make([]int, len(p.cols))
	for i, c := range p.cols {
		j := rel.Schema().ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("estimator: group column %q not in schema [%s]", c, rel.Schema())
		}
		idx[i] = j
	}
	if len(idx) == 0 && p.skip == nil {
		return nil, nil
	}
	gid := make([]int32, rel.Len())
	keyIdx := rel.Schema().Key()
	for i, row := range rel.Rows() {
		if p.skip != nil && p.skip.hasKeyBytes(p.kb.Row(row, keyIdx)) {
			gid[i] = -1
			continue
		}
		if len(idx) == 0 {
			continue
		}
		b := p.kb.Row(row, idx)
		id, ok := p.ids[string(b)]
		if !ok {
			id = -1
			if register {
				id = p.add(string(b), row, idx)
			}
		}
		gid[i] = id
	}
	return gid, nil
}

func (p *pass) add(key string, row relation.Row, idx []int) int32 {
	id := int32(len(p.keys))
	p.ids[key] = id
	p.keys = append(p.keys, key)
	var lb strings.Builder
	for n, j := range idx {
		if n > 0 {
			lb.WriteByte(',')
		}
		lb.WriteString(row[j].String())
	}
	p.lbls = append(p.lbls, lb.String())
	return id
}

// corrGids are the group ids of SVC+CORR's three inputs.
type corrGids struct{ view, fresh, stale []int32 }

// assignCorr assigns groups over the stale view, Ŝ′ and Ŝ, in that
// order. Rows of Ŝ found in no earlier input open groups of their own
// only when staleGroups is set.
func (p *pass) assignCorr(staleView *relation.Relation, s *clean.Samples, staleGroups bool) (corrGids, error) {
	var g corrGids
	var err error
	if g.view, err = p.assign(staleView, true); err != nil {
		return g, err
	}
	if g.fresh, err = p.assign(s.Fresh, true); err != nil {
		return g, err
	}
	g.stale, err = p.assign(s.Stale, staleGroups)
	return g, err
}

// input is one relation of a pass: its rows' group ids, the predicate's
// verdict on every row, and the aggregation attribute's column.
type input struct {
	rel   *relation.Relation
	gid   []int32 // nil: every row is in group 0
	match []bool
	attr  int // -1 for COUNT
}

// bind binds the query to rel's schema and evaluates its predicate over
// every row.
func (p *pass) bind(rel *relation.Relation, gid []int32) (*input, error) {
	var pred expr.Expr
	if p.q.Pred != nil {
		bound, err := p.q.Pred.Bind(rel.Schema())
		if err != nil {
			return nil, fmt.Errorf("estimator: %w", err)
		}
		pred = bound
	}
	attr := -1
	if p.q.Agg != CountQ {
		attr = rel.Schema().ColIndex(p.q.Attr)
		if attr < 0 {
			return nil, fmt.Errorf("estimator: attribute %q not in view schema [%s]", p.q.Attr, rel.Schema())
		}
	}
	return &input{rel: rel, gid: gid, match: predMatches(rel, pred), attr: attr}, nil
}

// needKey reports an error unless every sample relation has a primary
// key: the trans tables are keyed (Section 5.2.1).
func needKey(rels ...*relation.Relation) error {
	for _, r := range rels {
		if len(r.Schema().Key()) == 0 {
			return fmt.Errorf("estimator: sample relation needs a primary key")
		}
	}
	return nil
}

func (x *input) group(i int) int32 {
	if x.gid == nil {
		return 0
	}
	return x.gid[i]
}

// groupVals holds per-group value lists: group g's are
// vals[off[g]:off[g+1]], in row order.
type groupVals struct {
	off  []int32
	vals []float64
}

func (v groupVals) of(g int) []float64 { return v.vals[v.off[g]:v.off[g+1]:v.off[g+1]] }

// values gathers each group's matching values, as RunExact consumes
// them: the attribute of every matching row with NULLs dropped, or 1 per
// matching row for COUNT.
func (x *input) values(agg Agg, groups int) groupVals {
	rows := x.rel.Rows()
	take := func(i int) bool {
		return x.match[i] && x.group(i) >= 0 && (agg == CountQ || !rows[i][x.attr].IsNull())
	}
	off := make([]int32, groups+1)
	for i := range rows {
		if take(i) {
			off[x.group(i)+1]++
		}
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	vals := make([]float64, off[groups])
	next := append([]int32(nil), off[:groups]...)
	for i, row := range rows {
		if !take(i) {
			continue
		}
		g := x.group(i)
		v := 1.0
		if agg != CountQ {
			v = row[x.attr].AsFloat()
		}
		vals[next[g]] = v
		next[g]++
	}
	return groupVals{off: off, vals: vals}
}

// rowCounts counts each group's rows, matching or not.
func (x *input) rowCounts(groups int) []int {
	n := make([]int, groups)
	for i := range x.match {
		if g := x.group(i); g >= 0 {
			n[g]++
		}
	}
	return n
}

// moments accumulates a per-row term's count, sum and sum of squares.
type moments struct {
	k          int
	sum, sumsq float64
}

func (m *moments) add(v float64) {
	m.k++
	m.sum += v
	m.sumsq += v * v
}

// trans is row i's trans-table value for sum or count (Section 5.2.1):
// the predicate moved into the select clause as an indicator, scaled by
// 1/m.
func (x *input) trans(agg Agg, i int, scale float64) float64 {
	if !x.match[i] {
		return 0
	}
	if agg == CountQ {
		return scale
	}
	v := x.rel.Row(i)[x.attr]
	if v.IsNull() {
		return 0
	}
	return scale * v.AsFloat()
}

// transMoments accumulates each group's trans-table moments: one term
// per sample row, the indicator handling selection.
func (x *input) transMoments(agg Agg, scale float64, groups int) []moments {
	m := make([]moments, groups)
	for i := range x.match {
		if g := x.group(i); g >= 0 {
			m[g].add(x.trans(agg, i, scale))
		}
	}
	return m
}

// diffMoments accumulates each group's correspondence-subtract terms
// (Definition 4): a full outer join of the two samples' trans values on
// the view key, absent sides counting as zero. A key joins only within
// its group; one whose row changed group between Ŝ and Ŝ′ is a fresh-only
// term in its new group and a stale-only term in its old one. Terms are
// taken in the order the −̇ operator emits them: Ŝ′ rows in row order,
// then the unmatched Ŝ rows in row order.
func diffMoments(fresh, stale *input, agg Agg, scale float64, groups int) []moments {
	m := make([]moments, groups)
	paired := make([]bool, stale.rel.Len())
	keyIdx := fresh.rel.Schema().Key()
	var kb relation.KeyBuf
	for i, row := range fresh.rel.Rows() {
		g := fresh.group(i)
		if g < 0 {
			continue
		}
		sv := 0.0
		if j, ok := stale.rel.PosByEncodedBytes(kb.Row(row, keyIdx)); ok && stale.group(j) == g {
			sv = stale.trans(agg, j, scale)
			paired[j] = true
		}
		m[g].add(fresh.trans(agg, i, scale) - sv)
	}
	for j, done := range paired {
		if g := stale.group(j); g >= 0 && !done {
			m[g].add(-stale.trans(agg, j, scale)) // superfluous row: 0 − stale
		}
	}
	return m
}

// extremeDiffs finds each group's extreme row-by-row difference of the
// attribute (Appendix 12.1.1) over key-matched sample rows that satisfy
// the predicate on both sides and lie in the same group, and counts the
// pairs. A group without pairs has difference 0.
func extremeDiffs(fresh, stale *input, agg Agg, groups int) ([]float64, []int) {
	ext := make([]float64, groups)
	pairs := make([]int, groups)
	keyIdx := fresh.rel.Schema().Key()
	var kb relation.KeyBuf
	for i, fr := range fresh.rel.Rows() {
		g := fresh.group(i)
		if g < 0 || !fresh.match[i] || fr[fresh.attr].IsNull() {
			continue
		}
		j, ok := stale.rel.PosByEncodedBytes(kb.Row(fr, keyIdx))
		if !ok || stale.group(j) != g || !stale.match[j] {
			continue
		}
		st := stale.rel.Row(j)[stale.attr]
		if st.IsNull() {
			continue
		}
		d := fr[fresh.attr].AsFloat() - st.AsFloat()
		if pairs[g] == 0 || (agg == MaxQ && d > ext[g]) || (agg == MinQ && d < ext[g]) {
			ext[g] = d
		}
		pairs[g]++
	}
	return ext, pairs
}
