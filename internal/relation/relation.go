package relation

import (
	"fmt"
	"sort"
)

// Relation is an in-memory table: a schema plus a multiset of rows. When the
// schema declares a primary key the relation enforces key uniqueness and
// maintains a hash index from encoded key to row position, giving O(1)
// Get/Upsert/Delete — the operations the change-table maintenance strategy
// and the correspondence-subtract operator rely on.
type Relation struct {
	schema    Schema
	rows      []Row
	index     map[string]int // key -> position in rows; nil when no key
	secondary map[string]*secondaryIndex
	keyBuf    KeyBuf // scratch for mutation-path key encoding; not for readers

	// shared marks the rows/index/secondary storage as referenced by at
	// least one Snapshot. The next mutation detaches (copies) the storage
	// first, so published snapshots stay immutable — copy-on-write.
	shared bool
	// version counts storage generations: it is bumped every time the
	// relation detaches from a snapshot, so a snapshot's version
	// identifies the state it captured.
	version uint64
}

// New creates an empty relation with the given schema.
func New(schema Schema) *Relation {
	return NewSized(schema, 0)
}

// NewSized creates an empty relation pre-sized for about capacity rows,
// avoiding index rehashes during bulk loads (operator outputs).
func NewSized(schema Schema, capacity int) *Relation {
	r := &Relation{schema: schema}
	if capacity > 0 {
		r.rows = make([]Row, 0, capacity)
	}
	if schema.HasKey() {
		r.index = make(map[string]int, capacity)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len reports the number of rows.
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th row. The returned slice must not be modified.
func (r *Relation) Row(i int) Row { return r.rows[i] }

// Rows returns the underlying row slice. It must not be modified; use it for
// read-only scans.
func (r *Relation) Rows() []Row { return r.rows }

// Version identifies the storage generation of the relation's contents.
// Two relations created by Snapshot share a version until the live side
// mutates (which detaches it and bumps its version).
func (r *Relation) Version() uint64 { return r.version }

// Snapshot returns an immutable view of the relation's current contents.
// The snapshot shares storage with the receiver — taking one is O(1) — and
// the receiver detaches (copies rows and indexes) on its next mutation, so
// the snapshot keeps observing exactly the rows present now.
//
// Snapshot itself counts as a (bookkeeping) mutation of the receiver and
// must be serialized with writers; the returned relation is safe for any
// number of concurrent readers. Mutating a snapshot is possible (it
// detaches first) but defeats its purpose; treat it as read-only.
func (r *Relation) Snapshot() *Relation {
	r.shared = true
	return &Relation{
		schema:    r.schema,
		rows:      r.rows,
		index:     r.index,
		secondary: r.secondary,
		shared:    true,
		version:   r.version,
	}
}

// detach gives the relation private storage before a mutation when a
// snapshot still references the current storage. Secondary indexes are
// dropped rather than copied: every caller is a mutation that would
// invalidate them anyway.
func (r *Relation) detach() {
	if !r.shared {
		return
	}
	r.rows = append(make([]Row, 0, len(r.rows)+1), r.rows...)
	if r.index != nil {
		index := make(map[string]int, len(r.index))
		for k, v := range r.index {
			index[k] = v
		}
		r.index = index
	}
	r.secondary = nil
	r.shared = false
	r.version++
}

// keyOf returns the encoded primary key of the row.
func (r *Relation) keyOf(row Row) string { return row.KeyOf(r.schema.key) }

// keyBytes encodes the row's primary key into the relation's scratch
// buffer. Only mutation paths (which are single-threaded by contract) may
// use it; the result is valid until the next keyBytes call.
func (r *Relation) keyBytes(row Row) []byte { return r.keyBuf.Row(row, r.schema.key) }

// validate checks arity and column types (NULL allowed anywhere) and
// returns the row to store. Int values destined for float columns are
// coerced — into a copy, never in place: callers may pass rows aliased
// from relations that concurrent readers are scanning (the serving layer
// shares sample relations across goroutines), so the input row must stay
// untouched.
func (r *Relation) validate(row Row) (Row, error) {
	if len(row) != len(r.schema.cols) {
		return nil, fmt.Errorf("relation: row arity %d != schema arity %d", len(row), len(r.schema.cols))
	}
	out := row
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		want := r.schema.cols[i].Type
		if want == KindNull {
			continue // untyped column accepts anything
		}
		if v.Kind() != want {
			// Permit int into float columns; the generators use both.
			if want == KindFloat && v.Kind() == KindInt {
				if len(out) > 0 && &out[0] == &row[0] {
					out = append(Row(nil), row...)
				}
				out[i] = Float(v.AsFloat())
				continue
			}
			return nil, fmt.Errorf("relation: column %q wants %s, got %s", r.schema.cols[i].Name, want, v.Kind())
		}
	}
	return out, nil
}

// Insert appends a row. With a primary key it returns an error on duplicate
// keys.
func (r *Relation) Insert(row Row) error {
	row, err := r.validate(row)
	if err != nil {
		return err
	}
	if r.index != nil {
		// Duplicate check BEFORE detaching: a failed insert must leave
		// the relation untouched (no copy-on-write, indexes intact) —
		// Table.write relies on failed mutators mutating nothing.
		k := r.keyBytes(row)
		if _, dup := r.index[string(k)]; dup {
			return fmt.Errorf("relation: duplicate key %q", k)
		}
		r.detach()
		r.index[string(k)] = len(r.rows)
	} else {
		r.detach()
	}
	r.rows = append(r.rows, row)
	r.invalidateSecondary()
	return nil
}

// MustInsert inserts and panics on error. Intended for generators and tests
// where a failure is a bug.
func (r *Relation) MustInsert(row Row) {
	if err := r.Insert(row); err != nil {
		panic(err)
	}
}

// Upsert inserts the row, replacing any existing row with the same primary
// key. It reports whether a row was replaced. Without a primary key it
// appends.
func (r *Relation) Upsert(row Row) (replaced bool, err error) {
	row, err = r.validate(row)
	if err != nil {
		return false, err
	}
	r.detach()
	r.invalidateSecondary()
	if r.index == nil {
		r.rows = append(r.rows, row)
		return false, nil
	}
	k := r.keyBytes(row)
	if pos, ok := r.index[string(k)]; ok {
		r.rows[pos] = row
		return true, nil
	}
	r.index[string(k)] = len(r.rows)
	r.rows = append(r.rows, row)
	return false, nil
}

// Get returns the row with the given key values (in key order) and whether
// it exists. Requires a primary key.
func (r *Relation) Get(key ...Value) (Row, bool) {
	pos, ok := r.lookup(Row(key).KeyOf(intRange(len(key))))
	if !ok {
		return nil, false
	}
	return r.rows[pos], true
}

// GetByEncodedKey returns the row whose encoded primary key equals k.
func (r *Relation) GetByEncodedKey(k string) (Row, bool) {
	pos, ok := r.lookup(k)
	if !ok {
		return nil, false
	}
	return r.rows[pos], true
}

// GetByEncodedBytes is GetByEncodedKey over a caller-owned byte encoding
// (e.g. a KeyBuf); the lookup does not allocate and is safe for
// concurrent readers.
func (r *Relation) GetByEncodedBytes(k []byte) (Row, bool) {
	pos, ok := r.PosByEncodedBytes(k)
	if !ok {
		return nil, false
	}
	return r.rows[pos], true
}

// PosByEncodedBytes is GetByEncodedBytes returning the row's position
// (an index for Row and Rows) instead of the row, for callers that keep
// per-row side arrays.
func (r *Relation) PosByEncodedBytes(k []byte) (int, bool) {
	if r.index == nil {
		return 0, false
	}
	pos, ok := r.index[string(k)]
	return pos, ok
}

func (r *Relation) lookup(k string) (int, bool) {
	if r.index == nil {
		return 0, false
	}
	pos, ok := r.index[k]
	return pos, ok
}

// Delete removes the row with the given key values. It reports whether a row
// was removed.
func (r *Relation) Delete(key ...Value) bool {
	return r.DeleteByEncodedKey(Row(key).KeyOf(intRange(len(key))))
}

// DeleteByEncodedKey removes the row with the encoded key k.
func (r *Relation) DeleteByEncodedKey(k string) bool {
	pos, ok := r.lookup(k)
	if !ok {
		return false
	}
	r.detach()
	last := len(r.rows) - 1
	if pos != last {
		r.rows[pos] = r.rows[last]
		r.index[r.keyOf(r.rows[pos])] = pos
	}
	r.rows = r.rows[:last]
	delete(r.index, k)
	r.invalidateSecondary()
	return true
}

// DeleteWhere removes all rows for which pred returns true and reports how
// many were removed.
func (r *Relation) DeleteWhere(pred func(Row) bool) int {
	r.detach()
	kept := r.rows[:0]
	removed := 0
	for _, row := range r.rows {
		if pred(row) {
			removed++
			continue
		}
		kept = append(kept, row)
	}
	r.rows = kept
	if removed > 0 {
		if r.index != nil {
			r.reindex()
		}
		r.invalidateSecondary()
	}
	return removed
}

func (r *Relation) reindex() {
	r.index = make(map[string]int, len(r.rows))
	for i, row := range r.rows {
		r.index[string(r.keyBytes(row))] = i
	}
}

// Clone returns a deep-enough copy: rows are shared (immutable by
// convention) but the row slice and index are fresh, so inserts/deletes on
// the clone do not affect the original.
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.schema, rows: append([]Row(nil), r.rows...)}
	if r.index != nil {
		c.index = make(map[string]int, len(r.index))
		for k, v := range r.index {
			c.index[k] = v
		}
	}
	return c
}

// SortByKey orders rows by their encoded primary key (or by full row
// encoding when keyless) and rebuilds the index. Useful for deterministic
// comparison in tests.
func (r *Relation) SortByKey() {
	r.detach()
	keyIdx := r.schema.key
	if len(keyIdx) == 0 {
		keyIdx = intRange(len(r.schema.cols))
	}
	sort.Slice(r.rows, func(i, j int) bool {
		return r.rows[i].KeyOf(keyIdx) < r.rows[j].KeyOf(keyIdx)
	})
	if r.index != nil {
		r.reindex()
	}
}

// Equal reports whether two relations hold the same schema and the same set
// of rows (order-insensitive when both are keyed; order-sensitive
// otherwise).
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || len(r.rows) != len(o.rows) {
		return false
	}
	if r.index != nil && o.index != nil {
		for k, pos := range r.index {
			opos, ok := o.index[k]
			if !ok || !r.rows[pos].Equal(o.rows[opos]) {
				return false
			}
		}
		return true
	}
	for i := range r.rows {
		if !r.rows[i].Equal(o.rows[i]) {
			return false
		}
	}
	return true
}

// String renders a compact textual dump (schema plus up to 20 rows),
// intended for debugging.
func (r *Relation) String() string {
	s := fmt.Sprintf("[%s] %d rows", r.schema, len(r.rows))
	n := len(r.rows)
	if n > 20 {
		n = 20
	}
	for i := 0; i < n; i++ {
		s += "\n  " + fmt.Sprint([]Value(r.rows[i]))
	}
	if n < len(r.rows) {
		s += "\n  ..."
	}
	return s
}

func intRange(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// ---------------------------------------------------------------- indexes

// secondaryIndex maps an encoded column tuple to the positions of rows
// holding it (non-unique).
type secondaryIndex struct {
	cols []int
	pos  map[string][]int
}

// indexSig canonicalizes a column set for index lookup.
func indexSig(cols []int) string {
	var b []byte
	for _, c := range cols {
		b = append(b, byte(c>>8), byte(c))
	}
	return string(b)
}

// BuildIndex builds (or rebuilds) a secondary index on the given column
// indexes. Joins probe it instead of scanning; the db layer rebuilds
// registered indexes after applying deltas.
func (r *Relation) BuildIndex(cols []int) {
	if r.shared {
		// Copy-on-write for the secondary map alone: rows are not touched,
		// so existing snapshots keep their (shared, still valid) indexes
		// while the live side gains the new one.
		sec := make(map[string]*secondaryIndex, len(r.secondary)+1)
		for k, v := range r.secondary {
			sec[k] = v
		}
		r.secondary = sec
	}
	idx := &secondaryIndex{cols: append([]int(nil), cols...), pos: make(map[string][]int, len(r.rows))}
	var kb KeyBuf
	for i, row := range r.rows {
		k := kb.Row(row, idx.cols)
		idx.pos[string(k)] = append(idx.pos[string(k)], i)
	}
	if r.secondary == nil {
		r.secondary = map[string]*secondaryIndex{}
	}
	r.secondary[indexSig(cols)] = idx
}

// HasIndex reports whether rows can be located by the given columns in
// O(1): either they are exactly the primary key or a secondary index
// exists.
func (r *Relation) HasIndex(cols []int) bool {
	if r.index != nil && indexSig(cols) == indexSig(r.schema.key) {
		return true
	}
	_, ok := r.secondary[indexSig(cols)]
	return ok
}

// Probe returns the positions of rows whose col tuple encodes to key.
// HasIndex must be true for the column set.
func (r *Relation) Probe(cols []int, key string) []int {
	if r.index != nil && indexSig(cols) == indexSig(r.schema.key) {
		if p, ok := r.index[key]; ok {
			return []int{p}
		}
		return nil
	}
	if idx, ok := r.secondary[indexSig(cols)]; ok {
		return idx.pos[key]
	}
	return nil
}

// ProbeBytes is Probe over a caller-owned byte encoding (e.g. a KeyBuf):
// matching row positions are appended to dst, whose backing array the
// caller reuses across probes. It is the one-shot form of
// LookupIndex(...).ProbeBytes — per-row probe loops should resolve the
// Index handle once instead.
func (r *Relation) ProbeBytes(cols []int, key []byte, dst []int) []int {
	ix, ok := r.LookupIndex(cols)
	if !ok {
		return dst
	}
	return ix.ProbeBytes(key, dst)
}

// invalidateSecondary drops all secondary indexes (called on mutation).
func (r *Relation) invalidateSecondary() { r.secondary = nil }

// Index is a probe handle resolved once per scan so that per-row probes
// pay no signature computation or allocation. It is invalidated by any
// mutation of the relation; resolve, probe, and discard within one
// read-only pass.
type Index struct {
	rel *Relation
	pk  bool
	sec *secondaryIndex
}

// LookupIndex resolves a probe handle for the given column set, or
// reports that no index covers it (same condition as HasIndex).
func (r *Relation) LookupIndex(cols []int) (Index, bool) {
	if r.index != nil && indexSig(cols) == indexSig(r.schema.key) {
		return Index{rel: r, pk: true}, true
	}
	if idx, ok := r.secondary[indexSig(cols)]; ok {
		return Index{rel: r, sec: idx}, true
	}
	return Index{}, false
}

// ProbeBytes appends the positions of rows whose indexed column tuple
// encodes to key. It does not allocate beyond dst growth and is safe for
// concurrent readers.
func (ix Index) ProbeBytes(key []byte, dst []int) []int {
	if ix.pk {
		if p, ok := ix.rel.index[string(key)]; ok {
			return append(dst, p)
		}
		return dst
	}
	return append(dst, ix.sec.pos[string(key)]...)
}
