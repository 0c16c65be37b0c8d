package expr

import (
	"fmt"
	"sync"

	"github.com/sampleclean/svc/internal/relation"
)

// Vectorized expression evaluation. EvalVec is the column-at-a-time
// counterpart of Expr.Eval: instead of walking the expression tree once
// per row (an interface dispatch per node per row), it walks the tree
// once per batch and runs tight loops over typed column payloads. The
// semantics are exactly the scalar interpreter's — for every expression
// e, input row set, and selection, EvalVec produces cell i equal to
// e.Eval(row_i); the vectorized fast paths replicate the scalar kind
// rules (NULL comparisons are false, numeric promotion is per the
// operand kinds, cross-kind comparison orders by kind) and anything
// outside them falls back to per-cell Value operations, so the
// equivalence holds for mixed-kind and NULL-laden columns too. The
// columnar≡row property tests in internal/algebra pin this down against
// EvalMaterialized for whole plans.

// VecSource supplies columnar input to EvalVec: the column vector for a
// bound column index and the physical row count. relation.Batch
// implements it; row-major producers (scans, the estimator transforms)
// use a GatherSource.
type VecSource interface {
	Vec(col int) *relation.ColVec
	NumPhys() int
}

// GatherSource adapts row-major input to VecSource for one expression:
// it discovers which schema columns the expression reads and gathers
// just those columns of a row chunk into pooled scratch vectors. The
// fused columnar scan and the estimator's vectorized predicates share
// it. Release returns the scratch vectors to the pool; a GatherSource
// is single-goroutine, like the vectors it holds.
type GatherSource struct {
	idx  []int // gathered schema column indexes
	vecs []*relation.ColVec
	n    int
}

// NewGatherSource prepares a gather of the columns e references,
// resolved against schema. e is the unbound or bound expression —
// either way Columns reports the referenced names.
func NewGatherSource(schema relation.Schema, e Expr) *GatherSource {
	g := &GatherSource{}
	seen := map[int]bool{}
	for _, name := range e.Columns(nil) {
		if c := schema.ColIndex(name); c >= 0 && !seen[c] {
			seen[c] = true
			g.idx = append(g.idx, c)
		}
	}
	g.vecs = make([]*relation.ColVec, schema.NumCols())
	for _, c := range g.idx {
		g.vecs[c] = relation.GetVec()
	}
	return g
}

// Gather loads rows[lo:hi)'s referenced columns into the scratch
// vectors, replacing the previous chunk.
func (g *GatherSource) Gather(rows []relation.Row, lo, hi int) {
	for _, c := range g.idx {
		vec := g.vecs[c]
		vec.Reset()
		for i := lo; i < hi; i++ {
			vec.AppendValue(rows[i][c])
		}
	}
	g.n = hi - lo
}

// Release returns the scratch vectors to the pool.
func (g *GatherSource) Release() {
	for _, c := range g.idx {
		if g.vecs[c] != nil {
			relation.PutVec(g.vecs[c])
			g.vecs[c] = nil
		}
	}
}

// Vec implements VecSource.
func (g *GatherSource) Vec(col int) *relation.ColVec { return g.vecs[col] }

// NumPhys implements VecSource.
func (g *GatherSource) NumPhys() int { return g.n }

// CanVec reports whether e consists solely of operators the vectorized
// evaluator understands. Operators receiving an expression for which
// CanVec is false keep the row-at-a-time path.
func CanVec(e Expr) bool {
	switch t := e.(type) {
	case *colRef, constant:
		return true
	case *binary:
		return CanVec(t.l) && CanVec(t.r)
	case *compare:
		return CanVec(t.l) && CanVec(t.r)
	case *nary:
		for _, a := range t.args {
			if !CanVec(a) {
				return false
			}
		}
		return true
	case *not:
		return CanVec(t.e)
	case *coalesce:
		for _, a := range t.args {
			if !CanVec(a) {
				return false
			}
		}
		return true
	case *isNull:
		return CanVec(t.e)
	case *ifExpr:
		return CanVec(t.cond) && CanVec(t.then) && CanVec(t.els)
	case *fn:
		for _, a := range t.args {
			if !CanVec(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// EvalVec evaluates the bound expression e over src's selected rows (sel
// nil = all physical rows), appending one dense result cell per selected
// row to out. out is reset first. Like Expr.Eval, it panics on unbound
// columns; binding errors belong to plan-build time.
func EvalVec(e Expr, src VecSource, sel []int32, out *relation.ColVec) {
	out.Reset()
	evalVec(e, src, sel, out)
}

// FilterVec evaluates pred over src at sel and compacts sel in place to
// the rows where the predicate is truthy (Value.AsBool semantics, so a
// NULL result drops the row) — selection-vector filtering without moving
// a single cell. sel must be non-nil; the returned slice aliases it.
func FilterVec(pred Expr, src VecSource, sel []int32) []int32 {
	tmp := relation.GetVec()
	evalVec(pred, src, sel, tmp)
	kept := sel[:0]
	for k, i := range sel {
		if tmp.Truthy(k) {
			kept = append(kept, i)
		}
	}
	relation.PutVec(tmp)
	return kept
}

func selCount(src VecSource, sel []int32) int {
	if sel != nil {
		return len(sel)
	}
	return src.NumPhys()
}

func evalVec(e Expr, src VecSource, sel []int32, out *relation.ColVec) {
	switch t := e.(type) {
	case *colRef:
		if t.idx < 0 {
			panic(fmt.Sprintf("expr: evaluating unbound column %q", t.name))
		}
		v := src.Vec(t.idx)
		if sel == nil {
			out.CopyFrom(v)
		} else {
			out.GatherFrom(v, sel)
		}
	case constant:
		n := selCount(src, sel)
		for i := 0; i < n; i++ {
			out.AppendValue(t.v)
		}
	case *binary:
		l, r := relation.GetVec(), relation.GetVec()
		evalVec(t.l, src, sel, l)
		evalVec(t.r, src, sel, r)
		evalBinaryVec(t.op, l, r, out)
		relation.PutVec(l)
		relation.PutVec(r)
	case *compare:
		l, r := relation.GetVec(), relation.GetVec()
		evalVec(t.l, src, sel, l)
		evalVec(t.r, src, sel, r)
		evalCompareVec(t.op, l, r, out)
		relation.PutVec(l)
		relation.PutVec(r)
	case *nary:
		evalNaryVec(t, src, sel, out)
	case *not:
		tmp := relation.GetVec()
		evalVec(t.e, src, sel, tmp)
		for i, n := 0, tmp.Len(); i < n; i++ {
			out.AppendBool(!tmp.Truthy(i))
		}
		relation.PutVec(tmp)
	case *isNull:
		tmp := relation.GetVec()
		evalVec(t.e, src, sel, tmp)
		for i, n := 0, tmp.Len(); i < n; i++ {
			out.AppendBool(tmp.IsNull(i))
		}
		relation.PutVec(tmp)
	case *coalesce:
		args := make([]*relation.ColVec, len(t.args))
		for i, a := range t.args {
			args[i] = relation.GetVec()
			evalVec(a, src, sel, args[i])
		}
		n := selCount(src, sel)
		for i := 0; i < n; i++ {
			emitted := false
			for _, av := range args {
				if !av.IsNull(i) {
					out.AppendValue(av.Value(i))
					emitted = true
					break
				}
			}
			if !emitted {
				out.AppendNull()
			}
		}
		for _, av := range args {
			relation.PutVec(av)
		}
	case *ifExpr:
		cond, then, els := relation.GetVec(), relation.GetVec(), relation.GetVec()
		evalVec(t.cond, src, sel, cond)
		evalVec(t.then, src, sel, then)
		evalVec(t.els, src, sel, els)
		for i, n := 0, cond.Len(); i < n; i++ {
			if cond.Truthy(i) {
				out.AppendValue(then.Value(i))
			} else {
				out.AppendValue(els.Value(i))
			}
		}
		relation.PutVec(cond)
		relation.PutVec(then)
		relation.PutVec(els)
	case *fn:
		args := make([]*relation.ColVec, len(t.args))
		for i, a := range t.args {
			args[i] = relation.GetVec()
			evalVec(a, src, sel, args[i])
		}
		argBuf := make([]relation.Value, len(t.args))
		n := selCount(src, sel)
		for i := 0; i < n; i++ {
			for j, av := range args {
				argBuf[j] = av.Value(i)
			}
			out.AppendValue(t.impl(argBuf))
		}
		for _, av := range args {
			relation.PutVec(av)
		}
	default:
		panic(fmt.Sprintf("expr: EvalVec on unsupported expression %T (check CanVec first)", e))
	}
}

// evalNaryVec folds and/or over the argument vectors. Arguments are pure,
// so evaluating all of them (no short-circuit) is observationally
// identical to the scalar interpreter.
func evalNaryVec(t *nary, src VecSource, sel []int32, out *relation.ColVec) {
	n := selCount(src, sel)
	if len(t.args) == 0 {
		// And() is true, Or() is false, as in the scalar evaluator.
		for i := 0; i < n; i++ {
			out.AppendBool(t.op == "and")
		}
		return
	}
	accBuf := getBools(n)
	acc := *accBuf
	tmp := relation.GetVec()
	for ai, a := range t.args {
		tmp.Reset()
		evalVec(a, src, sel, tmp)
		if ai == 0 {
			for i := 0; i < n; i++ {
				acc[i] = tmp.Truthy(i)
			}
		} else if t.op == "and" {
			for i := 0; i < n; i++ {
				acc[i] = acc[i] && tmp.Truthy(i)
			}
		} else {
			for i := 0; i < n; i++ {
				acc[i] = acc[i] || tmp.Truthy(i)
			}
		}
	}
	relation.PutVec(tmp)
	for i := 0; i < n; i++ {
		out.AppendBool(acc[i])
	}
	putBools(accBuf)
}

func numericKind(k relation.Kind) bool {
	return k == relation.KindInt || k == relation.KindFloat || k == relation.KindBool
}

// evalCompareVec appends the boolean results of l op r. Fast paths cover
// uniform numeric×numeric (the scalar Compare's numeric branch: both
// sides promoted to float64, which is exact for the same int64s the
// scalar path would promote) and string×string; everything else goes
// through Value.Compare per cell.
func evalCompareVec(op CmpOp, l, r *relation.ColVec, out *relation.ColVec) {
	n := l.Len()
	lk, rk := l.Kind(), r.Kind()
	switch {
	case !l.Mixed() && !r.Mixed() && numericKind(lk) && numericKind(rk):
		lNull, rNull := l.HasNulls(), r.HasNulls()
		li, lf, lIsF := l.Int64s(), l.Float64s(), lk == relation.KindFloat
		ri, rf, rIsF := r.Int64s(), r.Float64s(), rk == relation.KindFloat
		for i := 0; i < n; i++ {
			if (lNull && l.IsNull(i)) || (rNull && r.IsNull(i)) {
				out.AppendBool(false)
				continue
			}
			var a, b float64
			if lIsF {
				a = lf[i]
			} else {
				a = float64(li[i])
			}
			if rIsF {
				b = rf[i]
			} else {
				b = float64(ri[i])
			}
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out.AppendBool(cmpHolds(op, cmp))
		}
	case !l.Mixed() && !r.Mixed() && lk == relation.KindString && rk == relation.KindString &&
		l.IsDict() && l.Dict() == r.Dict() && (op == OpEq || op == OpNe):
		// Shared dictionary: interning is injective, so string equality is
		// code equality — one integer comparison per cell.
		lNull, rNull := l.HasNulls(), r.HasNulls()
		lc, rc := l.DictCodes(), r.DictCodes()
		for i := 0; i < n; i++ {
			if (lNull && l.IsNull(i)) || (rNull && r.IsNull(i)) {
				out.AppendBool(false)
				continue
			}
			out.AppendBool((lc[i] == rc[i]) == (op == OpEq))
		}
	case !l.Mixed() && !r.Mixed() && lk == relation.KindString && rk == relation.KindString:
		lNull, rNull := l.HasNulls(), r.HasNulls()
		if l.IsDict() || r.IsDict() {
			// Mismatched or one-sided dictionaries: decode per cell.
			for i := 0; i < n; i++ {
				if (lNull && l.IsNull(i)) || (rNull && r.IsNull(i)) {
					out.AppendBool(false)
					continue
				}
				a, b := l.StringAt(i), r.StringAt(i)
				cmp := 0
				if a < b {
					cmp = -1
				} else if a > b {
					cmp = 1
				}
				out.AppendBool(cmpHolds(op, cmp))
			}
			break
		}
		ls, rs := l.Strings(), r.Strings()
		for i := 0; i < n; i++ {
			if (lNull && l.IsNull(i)) || (rNull && r.IsNull(i)) {
				out.AppendBool(false)
				continue
			}
			cmp := 0
			if ls[i] < rs[i] {
				cmp = -1
			} else if ls[i] > rs[i] {
				cmp = 1
			}
			out.AppendBool(cmpHolds(op, cmp))
		}
	default:
		for i := 0; i < n; i++ {
			va, vb := l.Value(i), r.Value(i)
			if va.IsNull() || vb.IsNull() {
				out.AppendBool(false)
				continue
			}
			out.AppendBool(cmpHolds(op, va.Compare(vb)))
		}
	}
}

func cmpHolds(op CmpOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// evalBinaryVec appends l op r with the scalar numericOp promotion rules:
// NULL operands yield NULL, a float on either side promotes to float,
// division is always float and NULL on a zero divisor. Uniform numeric
// vectors run typed loops; anything else falls back to Value arithmetic.
func evalBinaryVec(op BinOp, l, r *relation.ColVec, out *relation.ColVec) {
	n := l.Len()
	lk, rk := l.Kind(), r.Kind()
	if !l.Mixed() && !r.Mixed() && numericKind(lk) && numericKind(rk) {
		lNull, rNull := l.HasNulls(), r.HasNulls()
		li, lf, lIsF := l.Int64s(), l.Float64s(), lk == relation.KindFloat
		ri, rf, rIsF := r.Int64s(), r.Float64s(), rk == relation.KindFloat
		fAt := func(p []int64, f []float64, isF bool, i int) float64 {
			if isF {
				return f[i]
			}
			return float64(p[i])
		}
		switch {
		case op == OpDiv:
			for i := 0; i < n; i++ {
				if (lNull && l.IsNull(i)) || (rNull && r.IsNull(i)) {
					out.AppendNull()
					continue
				}
				b := fAt(ri, rf, rIsF, i)
				if b == 0 {
					out.AppendNull()
					continue
				}
				out.AppendFloat64(fAt(li, lf, lIsF, i) / b)
			}
		case lIsF || rIsF:
			for i := 0; i < n; i++ {
				if (lNull && l.IsNull(i)) || (rNull && r.IsNull(i)) {
					out.AppendNull()
					continue
				}
				a, b := fAt(li, lf, lIsF, i), fAt(ri, rf, rIsF, i)
				switch op {
				case OpAdd:
					out.AppendFloat64(a + b)
				case OpSub:
					out.AppendFloat64(a - b)
				default:
					out.AppendFloat64(a * b)
				}
			}
		default: // int×int (bools count as ints, as in Value.AsInt)
			for i := 0; i < n; i++ {
				if (lNull && l.IsNull(i)) || (rNull && r.IsNull(i)) {
					out.AppendNull()
					continue
				}
				a, b := li[i], ri[i]
				switch op {
				case OpAdd:
					out.AppendInt64(a + b)
				case OpSub:
					out.AppendInt64(a - b)
				default:
					out.AppendInt64(a * b)
				}
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		va, vb := l.Value(i), r.Value(i)
		switch op {
		case OpAdd:
			out.AppendValue(va.Add(vb))
		case OpSub:
			out.AppendValue(va.Sub(vb))
		case OpMul:
			out.AppendValue(va.Mul(vb))
		default:
			out.AppendValue(va.Div(vb))
		}
	}
}

// boolPool recycles the and/or accumulator slices.
var boolPool = sync.Pool{New: func() any {
	s := make([]bool, 0, relation.BatchCap)
	return &s
}}

// getBools returns a pooled accumulator of length n. The pool holds
// slice pointers, and putBools returns the same pointer, so recycling
// allocates nothing per batch.
func getBools(n int) *[]bool {
	p := boolPool.Get().(*[]bool)
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	*p = (*p)[:n]
	return p
}

func putBools(p *[]bool) {
	*p = (*p)[:0]
	boolPool.Put(p)
}
