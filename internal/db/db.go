package db

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/sampleclean/svc/internal/algebra"
	"github.com/sampleclean/svc/internal/relation"
)

// InsOf returns the context binding name of table's insertion delta ΔR.
func InsOf(table string) string { return "Δ" + table }

// DelOf returns the context binding name of table's deletion delta ∇R.
func DelOf(table string) string { return "∇" + table }

// ForeignKey records that Table.Column references RefTable's primary key.
// The hash push-down's foreign-key special case consults this metadata.
type ForeignKey struct {
	Table, Column, RefTable string
}

// Table is one base relation plus its staged deltas.
//
// Mutators (Insert, StageInsert, StageUpdate, StageDelete) are safe for
// concurrent use: they serialize on the owning database's writer lock and
// invalidate its published version. Plain readers (Rows, Insertions,
// Deletions) return the live relations and are only safe when no writer is
// running; concurrent readers should pin a Database.Pin version instead.
type Table struct {
	name      string
	owner     *Database
	schema    relation.Schema // immutable; readable without the lock
	base      *relation.Relation
	ins       *relation.Relation // ΔR: staged insertions (keyed like base)
	del       *relation.Relation // ∇R: staged deletions (full old rows)
	indexCols [][]int            // registered secondary indexes (column sets)
	changed   bool               // mutated since the last published version (guarded by owner.mu)
	baseGen   uint64             // bumped per direct base Insert (guarded by owner.mu)
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. It is fixed at creation, so unlike
// Rows it is safe to call while a maintenance boundary swaps the base.
func (t *Table) Schema() relation.Schema { return t.schema }

// Rows returns the current (pre-delta) contents.
func (t *Table) Rows() *relation.Relation { return t.base }

// Len reports the number of base rows (staged deltas excluded).
func (t *Table) Len() int { return t.base.Len() }

// Insertions returns the staged insertion relation ΔR.
func (t *Table) Insertions() *relation.Relation { return t.ins }

// Deletions returns the staged deletion relation ∇R.
func (t *Table) Deletions() *relation.Relation { return t.del }

// write runs a mutation under the owning database's writer lock and, when
// it succeeds, marks the published version stale. Failed staging calls
// mutate nothing (the stage* methods validate before touching state), so
// they must not invalidate the version: a spurious epoch bump would
// re-arm copy-on-write detaches and flush the serving layer's per-epoch
// caches for an identical state.
func (t *Table) write(fn func() error) error {
	t.owner.mu.Lock()
	defer t.owner.mu.Unlock()
	err := fn()
	if err == nil {
		t.owner.dirty.Store(true)
		t.changed = true
	}
	return err
}

// Insert adds a row directly to the base table (initial load, before any
// view is materialized).
func (t *Table) Insert(row relation.Row) error {
	return t.loggedWrite(OpBase, row, func() error {
		if err := t.base.Insert(row); err != nil {
			return err
		}
		// Direct base mutations are not staged, so the ApplyVersion
		// retirement protocol cannot re-base them across a maintenance
		// boundary; the generation bump makes a concurrent boundary
		// reject its (now stale) pin instead of silently dropping the
		// inserted row at the base swap.
		t.baseGen++
		return nil
	})
}

// MustInsert is Insert, panicking on error (generators).
func (t *Table) MustInsert(row relation.Row) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// StageInsert stages a new record into ΔR. The key must not exist in the
// base table (use StageUpdate for updates).
func (t *Table) StageInsert(row relation.Row) error {
	return t.loggedWrite(OpInsert, row, func() error { return t.stageInsert(row) })
}

func (t *Table) stageInsert(row relation.Row) error {
	if t.base.Schema().HasKey() {
		k := row.KeyOf(t.base.Schema().Key())
		if _, exists := t.base.GetByEncodedKey(k); exists {
			return fmt.Errorf("db: %s: staged insert of existing key; use StageUpdate", t.name)
		}
	}
	_, err := t.ins.Upsert(row)
	return err
}

// StageDelete stages the deletion of the base row with the given key. The
// full old row is recorded in ∇R so maintenance can subtract its
// contribution from aggregates.
func (t *Table) StageDelete(key ...relation.Value) error {
	return t.loggedWrite(OpDelete, relation.Row(key), func() error { return t.stageDelete(key...) })
}

func (t *Table) stageDelete(key ...relation.Value) error {
	k := relation.Row(key).KeyOf(intRange(len(key)))
	old, ok := t.base.GetByEncodedKey(k)
	if !ok {
		// Deleting a row staged for insertion just un-stages it.
		if t.ins.DeleteByEncodedKey(k) {
			return nil
		}
		return fmt.Errorf("db: %s: staged delete of unknown key", t.name)
	}
	// Keep the first recorded old row if the same key is touched twice.
	if _, exists := t.del.GetByEncodedKey(k); !exists {
		if err := t.del.Insert(old.Clone()); err != nil {
			return err
		}
	}
	// Deleting a row that also had a staged update cancels the pending
	// re-insertion.
	t.ins.DeleteByEncodedKey(k)
	return nil
}

// StageUpdate stages an update of an existing record: the paper models it
// as a deletion of the old row followed by an insertion of the new one.
func (t *Table) StageUpdate(row relation.Row) error {
	return t.loggedWrite(OpUpdate, row, func() error { return t.stageUpdate(row) })
}

func (t *Table) stageUpdate(row relation.Row) error {
	keyIdx := t.base.Schema().Key()
	k := row.KeyOf(keyIdx)
	old, ok := t.base.GetByEncodedKey(k)
	if !ok {
		return fmt.Errorf("db: %s: staged update of unknown key", t.name)
	}
	// Upsert (which validates the new row) before recording the old row:
	// an invalid update then fails without having mutated anything.
	if _, err := t.ins.Upsert(row); err != nil {
		return err
	}
	if _, exists := t.del.GetByEncodedKey(k); !exists {
		if err := t.del.Insert(old.Clone()); err != nil {
			return err
		}
	}
	return nil
}

// PendingSize reports the number of staged insertions and deletions.
func (t *Table) PendingSize() (ins, del int) {
	t.owner.mu.Lock()
	defer t.owner.mu.Unlock()
	return t.ins.Len(), t.del.Len()
}

// clearDeltas resets the staged deltas.
func (t *Table) clearDeltas() {
	t.ins = relation.New(t.base.Schema())
	t.del = relation.New(t.base.Schema())
}

// Database is a catalog of tables with foreign keys.
//
// The catalog supports snapshot-isolated serving: all mutators serialize
// on an internal writer lock, and Pin publishes an immutable Version
// (copy-on-write snapshots of every table and its deltas, plus an epoch
// counter) that any number of readers can evaluate against while writers
// keep staging updates and maintenance folds deltas in. See DESIGN.md
// ("Snapshot serving layer") for the publication protocol.
type Database struct {
	mu          sync.Mutex // serializes all mutation and version building
	tables      map[string]*Table
	order       []string
	fks         []ForeignKey
	parallelism int
	noColumnar  bool

	epoch   uint64                  // publication counter (bumped per new Version)
	applied uint64                  // maintenance-boundary counter (ApplyDeltas/ApplyVersion)
	dirty   atomic.Bool             // mutations since cur was built
	cur     atomic.Pointer[Version] // last published version
	payload map[string]any          // serving attachments carried by versions
	dlog    dlogField               // attached durable maintenance log (see log.go)
}

// New creates an empty database.
func New() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Version is an immutable published snapshot of the catalog: every base
// table and its staged deltas as of one publication epoch, plus opaque
// serving attachments (e.g. the view/sample pair the svc layer publishes
// with each maintenance cycle). Readers evaluate relational expressions
// against a Version's Context while writers mutate the live catalog.
type Version struct {
	epoch       uint64
	applied     uint64
	order       []string
	tables      map[string]versionTable
	fks         []ForeignKey
	parallelism int
	noColumnar  bool
	payload     map[string]any
	walSeq      uint64 // last durable-log sequence captured by this version
}

type versionTable struct {
	base, ins, del *relation.Relation
	baseGen        uint64
}

// Epoch identifies this publication; it increases monotonically over a
// database's lifetime.
func (v *Version) Epoch() uint64 { return v.epoch }

// AppliedSeq counts the maintenance boundaries (delta applications) that
// happened before this version was published. Two versions with the same
// AppliedSeq share identical base tables.
func (v *Version) AppliedSeq() uint64 { return v.applied }

// Tables returns the table names in creation order.
func (v *Version) Tables() []string { return append([]string(nil), v.order...) }

// Base returns the pinned base relation of the named table, or nil.
func (v *Version) Base(name string) *relation.Relation {
	if vt, ok := v.tables[name]; ok {
		return vt.base
	}
	return nil
}

// Insertions returns the pinned staged-insertion relation ΔR, or nil.
func (v *Version) Insertions(name string) *relation.Relation {
	if vt, ok := v.tables[name]; ok {
		return vt.ins
	}
	return nil
}

// Deletions returns the pinned staged-deletion relation ∇R, or nil.
func (v *Version) Deletions(name string) *relation.Relation {
	if vt, ok := v.tables[name]; ok {
		return vt.del
	}
	return nil
}

// HasPending reports whether the version carries staged deltas.
func (v *Version) HasPending() bool {
	for _, vt := range v.tables {
		if vt.ins.Len() > 0 || vt.del.Len() > 0 {
			return true
		}
	}
	return false
}

// Attachment returns the serving attachment stored under key by
// ApplyVersion/SetAttachment, or nil. Attachments ride along from version
// to version until overwritten, so a reader pinning any version sees the
// attachment published with the last maintenance cycle.
func (v *Version) Attachment(key string) any { return v.payload[key] }

// Context returns an evaluation context binding every pinned base table
// under its name and its pinned deltas under InsOf/DelOf names — the
// snapshot-isolated counterpart of Database.Context.
func (v *Version) Context() *algebra.Context {
	rels := make(map[string]*relation.Relation, 3*len(v.order))
	for _, name := range v.order {
		vt := v.tables[name]
		rels[name] = vt.base
		rels[InsOf(name)] = vt.ins
		rels[DelOf(name)] = vt.del
	}
	ctx := algebra.NewContext(rels)
	ctx.Parallelism = v.parallelism
	ctx.NoColumnar = v.noColumnar
	ctx.Epoch = v.epoch
	return ctx
}

// PendingRows counts the staged delta rows (insertions plus deletions)
// pinned by this version for the named tables — all tables when none are
// given. It is the staleness mass a maintenance cycle over those tables
// would fold in, the quantity the refresh scheduler weighs views by.
func (v *Version) PendingRows(tables ...string) int {
	total := 0
	if len(tables) == 0 {
		for _, vt := range v.tables {
			total += vt.ins.Len() + vt.del.Len()
		}
		return total
	}
	for _, name := range tables {
		if vt, ok := v.tables[name]; ok {
			total += vt.ins.Len() + vt.del.Len()
		}
	}
	return total
}

// buildVersion publishes a fresh Version from the live catalog. The caller
// must hold d.mu. Tables untouched since the previous version reuse its
// snapshots, so only relations a writer actually mutated get re-marked
// shared (and only those pay a copy-on-write detach on their next write).
func (d *Database) buildVersion() *Version {
	d.epoch++
	v := &Version{
		epoch:       d.epoch,
		applied:     d.applied,
		order:       append([]string(nil), d.order...),
		tables:      make(map[string]versionTable, len(d.order)),
		fks:         append([]ForeignKey(nil), d.fks...),
		parallelism: d.parallelism,
		noColumnar:  d.noColumnar,
		payload:     d.payload,
	}
	if lg := d.DeltaLog(); lg != nil {
		// Appends happen under d.mu, so this is a consistent cut: the
		// version captures exactly the mutations of records ≤ walSeq.
		v.walSeq = lg.SeqNow()
	}
	prev := d.cur.Load()
	for _, name := range d.order {
		t := d.tables[name]
		if !t.changed && prev != nil {
			if vt, ok := prev.tables[name]; ok {
				v.tables[name] = vt
				continue
			}
		}
		v.tables[name] = versionTable{
			base:    t.base.Snapshot(),
			ins:     t.ins.Snapshot(),
			del:     t.del.Snapshot(),
			baseGen: t.baseGen,
		}
		t.changed = false
	}
	d.cur.Store(v)
	d.dirty.Store(false)
	return v
}

// Pin returns the current published version, building one first if the
// catalog changed since the last publication. Pinning is cheap (O(#tables)
// copy-on-write marks when dirty, a single atomic load otherwise) and the
// returned version never changes: readers evaluate queries, maintenance,
// and cleaning against it while writers continue.
//
// The fast path takes no lock: when the catalog is unchanged since the
// last publication, Pin is one atomic load, so readers never wait behind a
// publication in progress (they observe the previous version, which is
// immutable and consistent).
func (d *Database) Pin() *Version {
	if v := d.cur.Load(); v != nil && !d.dirty.Load() {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v := d.cur.Load(); v != nil && !d.dirty.Load() {
		return v
	}
	return d.buildVersion()
}

// SetAttachment publishes a serving attachment under key: subsequent
// versions (including the one published by this call) carry it. Pass nil
// to remove.
func (d *Database) SetAttachment(key string, val any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attachLocked(map[string]any{key: val})
	d.buildVersion()
}

// attachLocked merges attachments into a fresh payload map (versions share
// payload maps, so the current one is never mutated in place).
func (d *Database) attachLocked(atts map[string]any) {
	merged := make(map[string]any, len(d.payload)+len(atts))
	for k, val := range d.payload {
		merged[k] = val
	}
	for k, val := range atts {
		if val == nil {
			delete(merged, k)
			continue
		}
		merged[k] = val
	}
	d.payload = merged
}

// Create adds a table with the given schema; the schema must declare a
// primary key (paper Section 3.1 assumes one, adding a synthetic sequence
// otherwise — callers can do the same with an extra column).
func (d *Database) Create(name string, schema relation.Schema) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[name]; dup {
		return nil, fmt.Errorf("db: table %q already exists", name)
	}
	if !schema.HasKey() {
		return nil, fmt.Errorf("db: table %q needs a primary key", name)
	}
	t := &Table{name: name, owner: d, schema: schema, base: relation.New(schema), changed: true}
	t.clearDeltas()
	d.tables[name] = t
	d.order = append(d.order, name)
	d.dirty.Store(true)
	return t, nil
}

// MustCreate is Create, panicking on error.
func (d *Database) MustCreate(name string, schema relation.Schema) *Table {
	t, err := d.Create(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// SetParallelism sets the intra-operator worker count stamped onto every
// evaluation context this database hands out (view materialization,
// maintenance, sampled cleaning). 0 and 1 mean serial; parallel
// evaluation produces identical results (see package algebra).
func (d *Database) SetParallelism(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.parallelism = n
	d.dirty.Store(true)
}

// Parallelism returns the configured intra-operator worker count.
func (d *Database) Parallelism() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.parallelism
}

// SetColumnar enables or disables the columnar batch path on every
// evaluation context this database hands out (view materialization,
// maintenance, sampled cleaning, svcql execution). Columnar is the
// default; disabling it (the svcbench -columnar=off A/B mode) falls back
// to the row-at-a-time pipeline with identical results.
func (d *Database) SetColumnar(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noColumnar = !on
	d.dirty.Store(true)
}

// Columnar reports whether the columnar batch path is enabled.
func (d *Database) Columnar() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.noColumnar
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tables[name]
}

// Tables returns the table names in creation order.
func (d *Database) Tables() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.order...)
}

// AddForeignKey registers that table.column references refTable's key.
func (d *Database) AddForeignKey(table, column, refTable string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[table]
	if !ok {
		return fmt.Errorf("db: unknown table %q", table)
	}
	if !t.Schema().HasCol(column) {
		return fmt.Errorf("db: table %q has no column %q", table, column)
	}
	if _, ok := d.tables[refTable]; !ok {
		return fmt.Errorf("db: unknown referenced table %q", refTable)
	}
	d.fks = append(d.fks, ForeignKey{Table: table, Column: column, RefTable: refTable})
	d.dirty.Store(true)
	return nil
}

// ForeignKeys returns the registered constraints.
func (d *Database) ForeignKeys() []ForeignKey {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]ForeignKey(nil), d.fks...)
}

// HasPending reports whether any table has staged deltas — i.e. whether
// views over this database are stale (paper: S is stale when some delta
// relation is non-empty).
func (d *Database) HasPending() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.tables {
		if t.ins.Len() > 0 || t.del.Len() > 0 {
			return true
		}
	}
	return false
}

// ApplyDeltas folds all staged deltas into the base tables and clears
// them: deletions first, then insertions (an update's delete+insert pair
// lands as a replacement). It is the pin-everything-now special case of
// ApplyVersion.
func (d *Database) ApplyDeltas() error {
	return d.ApplyVersion(d.Pin(), nil)
}

// ApplyVersion folds exactly the staged deltas captured in the pinned
// version v into the base tables — the maintenance-boundary operation for
// concurrent serving. Updates staged after v was pinned survive as pending
// deltas, re-based so they remain correct relative to the new base tables:
//
//   - a delta row identical to the applied one is retired (it has landed);
//   - a pending insertion that was re-staged with a newer value after the
//     pin keeps its ΔR row, and the just-applied row is recorded in ∇R as
//     its old version, so the next maintenance subtracts the applied
//     contribution before adding the newer one;
//   - a pending deletion of a row whose applied version just landed keeps
//     its ∇R record.
//
// The attachments (if non-nil) are published atomically with the fold: a
// reader pinning the resulting version sees the new base tables, only the
// deltas staged after v, and the new attachments — never a mix.
func (d *Database) ApplyVersion(v *Version, atts map[string]any) error {
	return d.applyVersion(v, atts, nil)
}

// ApplyVersionTables is ApplyVersion restricted to a subset of tables:
// only the named tables' pinned deltas are folded and retired; every
// other table keeps its base AND its pending deltas untouched, so views
// over the excluded tables still see their full change sets at the next
// maintenance. This is what makes staleness-driven scheduling sound on a
// shared catalog — deferring a view must not let another view's boundary
// silently fold (and retire) the deferred view's deltas out from under
// it.
//
// Table names absent from the catalog are ignored. The attachments are
// published exactly as in ApplyVersion. A partial boundary does not
// advance the durable log's replay cut (excluded tables' logged records
// are not yet folded), so recovery after a crash simply re-stages the
// partially folded deltas — a recomputation, never a loss.
func (d *Database) ApplyVersionTables(v *Version, atts map[string]any, tables []string) error {
	only := make(map[string]bool, len(tables))
	for _, t := range tables {
		only[t] = true
	}
	return d.applyVersion(v, atts, only)
}

// applyVersion implements ApplyVersion; a nil `only` folds every table,
// otherwise exactly the tables in the set.
func (d *Database) applyVersion(v *Version, atts map[string]any, only map[string]bool) error {
	folds := func(name string) bool { return only == nil || only[name] }
	// The retirement protocol is only sound relative to the base tables v
	// was pinned against: re-folding a pin that predates another boundary
	// would mis-record already-applied rows as pending changes. Reject
	// superseded pins; the caller re-pins and retries (the background
	// Refresher does so on its next tick).
	superseded := func(applied uint64) error {
		return fmt.Errorf("db: apply version: pin from applied-boundary %d superseded by boundary %d; re-pin and retry",
			v.applied, applied)
	}

	// Phase 1 — no lock held: build each touched table's NEXT base off to
	// the side (clone the pinned base, fold the pinned deltas, rebuild
	// its registered secondary indexes). Base tables only change at
	// boundaries and this pin is verified un-superseded below, so the
	// pinned base snapshot IS the current base content; all the O(|base|)
	// work happens while readers pin and writers stage freely.
	d.mu.Lock()
	if v.applied != d.applied {
		d.mu.Unlock()
		return superseded(d.applied)
	}
	idxCols := make(map[string][][]int, len(v.order))
	for _, name := range v.order {
		t := d.tables[name]
		if t == nil {
			d.mu.Unlock()
			return fmt.Errorf("db: apply version: table %q no longer exists", name)
		}
		idxCols[name] = append([][]int(nil), t.indexCols...)
	}
	d.mu.Unlock()

	newBases := make(map[string]*relation.Relation)
	for _, name := range v.order {
		vt := v.tables[name]
		if !folds(name) || (vt.ins.Len() == 0 && vt.del.Len() == 0) {
			continue
		}
		nb := vt.base.Clone()
		keyIdx := nb.Schema().Key()
		for _, row := range vt.del.Rows() {
			nb.DeleteByEncodedKey(row.KeyOf(keyIdx))
		}
		for _, row := range vt.ins.Rows() {
			if _, err := nb.Upsert(row); err != nil {
				return fmt.Errorf("db: apply version to %s: %w", name, err)
			}
		}
		for _, cols := range idxCols[name] {
			nb.BuildIndex(cols)
		}
		newBases[name] = nb
	}

	// Phase 2 — short critical section: swap the new bases in, retire the
	// applied deltas from the live pending sets (O(|deltas|)), and
	// publish. Readers pinning during this section wait at most for the
	// retirement walk, never for the fold or index builds.
	d.mu.Lock()
	if v.applied != d.applied {
		d.mu.Unlock()
		return superseded(d.applied)
	}
	// Pre-validate EVERY table before mutating any: phase 2 must be
	// all-or-nothing, or an abort on a later table would leave earlier
	// tables' deltas folded-and-retired without the maintained view ever
	// seeing them.
	for _, name := range v.order {
		t := d.tables[name]
		if t == nil {
			d.mu.Unlock()
			return fmt.Errorf("db: apply version: table %q no longer exists", name)
		}
		if _, touched := newBases[name]; touched && t.baseGen != v.tables[name].baseGen {
			// Direct (unstaged) base inserts since the pin would vanish
			// in the swap; reject the pin instead — the caller re-pins
			// and retries with those rows included.
			d.mu.Unlock()
			return fmt.Errorf("db: apply version: table %q had direct base inserts since the pin; re-pin and retry", name)
		}
	}
	// Mutations start here. The only remaining error path (a ∇R Insert of
	// a row cloned from the same-schema base) is unreachable in practice;
	// should it ever fire, the boundary is still counted and published so
	// readers see a state coherent with the live catalog, and the error
	// is reported.
	var applyErr error
	for _, name := range v.order {
		t := d.tables[name]
		vt := v.tables[name]
		keyIdx := t.base.Schema().Key()
		nb, touched := newBases[name]
		if touched {
			t.base = nb
			t.changed = true
		} else {
			// Untouched by this boundary, but direct Inserts may have
			// invalidated registered indexes since the last one; restore
			// them (rare — loads normally precede serving).
			for _, cols := range t.indexCols {
				if !t.base.HasIndex(cols) {
					t.base.BuildIndex(cols)
					t.changed = true
				}
			}
		}
		if !folds(name) {
			// Excluded from this (partial) boundary: the base was not
			// folded, so the pinned deltas must stay pending verbatim for
			// the table's own next maintenance boundary.
			continue
		}
		// Retire the applied deltas from the live pending sets. ∇R rows
		// are write-once per key, so an identical row means "applied".
		for _, row := range vt.del.Rows() {
			k := row.KeyOf(keyIdx)
			if live, ok := t.del.GetByEncodedKey(k); ok && live.Equal(row) {
				t.del.DeleteByEncodedKey(k)
			}
		}
		for _, row := range vt.ins.Rows() {
			k := row.KeyOf(keyIdx)
			live, ok := t.ins.GetByEncodedKey(k)
			if ok && live.Equal(row) {
				t.ins.DeleteByEncodedKey(k)
				continue
			}
			// The key was re-staged (newer value) or un-staged (deletion)
			// after the pin: the applied row is now the pending change's
			// old version; record it in ∇R unless one is already pending.
			if _, has := t.del.GetByEncodedKey(k); !has {
				if err := t.del.Insert(row.Clone()); err != nil && applyErr == nil {
					applyErr = fmt.Errorf("db: apply version to %s: %w", name, err)
				}
			}
		}
		// Common case: everything applied and nothing re-staged — reset
		// the delta relations wholesale so their map storage does not
		// grow without bound across boundaries.
		if touched && t.ins.Len() == 0 && t.del.Len() == 0 {
			t.clearDeltas()
		}
	}
	d.applied++
	if applyErr == nil && atts != nil {
		d.attachLocked(atts)
	}
	d.dirty.Store(true)
	nv := d.buildVersion()
	// Record the maintenance boundary in the durable log: every logged
	// record with seq ≤ the pin's cut is now folded into the base tables,
	// so recovery replays only the suffix. The record is buffered under
	// the lock (keeping log order = boundary order) and synced after
	// release; the just-published version rides along so the log can
	// checkpoint it off-lock when enough segments become retirable.
	// A partial boundary skips the record: excluded tables' logged
	// records are not folded yet, so the replay cut must not move past
	// them. Recovery then re-stages the partially folded rows too — the
	// folded tables' next full boundary re-nets them (recompute, not
	// loss).
	var commit func() error
	if lg := d.DeltaLog(); lg != nil && applyErr == nil && only == nil {
		var logErr error
		commit, logErr = lg.Boundary(d.applied, v.walSeq, nv)
		if logErr != nil {
			applyErr = logErr
		}
	}
	d.mu.Unlock()
	if commit != nil {
		if err := commit(); err != nil && applyErr == nil {
			applyErr = err
		}
	}
	return applyErr
}

// Snapshot returns a deep copy of the database, including staged deltas.
// Experiments use snapshots to evaluate competing maintenance approaches
// on identical states. (For cheap read-only snapshots, use Pin.)
func (d *Database) Snapshot() *Database {
	d.mu.Lock()
	defer d.mu.Unlock()
	nd := New()
	for _, name := range d.order {
		t := d.tables[name]
		nt := &Table{name: name, owner: nd, schema: t.schema, base: t.base.Clone(), ins: t.ins.Clone(), del: t.del.Clone(), changed: true}
		nt.indexCols = append(nt.indexCols, t.indexCols...)
		nt.rebuildIndexes()
		nd.tables[name] = nt
		nd.order = append(nd.order, name)
	}
	nd.fks = append(nd.fks, d.fks...)
	nd.parallelism = d.parallelism
	nd.noColumnar = d.noColumnar
	return nd
}

// Context returns an evaluation context over the current published
// version (see Pin): every pinned base table is bound under its name and
// its pinned deltas under InsOf/DelOf names. Extra relations (e.g. the
// stale view) can be bound afterwards.
//
// Because the bindings are copy-on-write snapshots, an evaluation against
// the context is isolated from concurrent staging and maintenance.
func (d *Database) Context() *algebra.Context {
	return d.Pin().Context()
}

func intRange(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// EnsureIndex registers and builds a secondary index on the named columns
// of a base table. Joins probe it instead of scanning (package algebra);
// ApplyDeltas rebuilds registered indexes after folding updates in.
// Registering the same column set twice is a no-op.
func (d *Database) EnsureIndex(table string, cols ...string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[table]
	if !ok {
		return fmt.Errorf("db: unknown table %q", table)
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := t.Schema().ColIndex(c)
		if j < 0 {
			return fmt.Errorf("db: table %q has no column %q", table, c)
		}
		idx[i] = j
	}
	if t.base.HasIndex(idx) {
		sig := fmt.Sprint(idx)
		for _, have := range t.indexCols {
			if fmt.Sprint(have) == sig {
				return nil
			}
		}
	}
	t.indexCols = append(t.indexCols, idx)
	t.base.BuildIndex(idx)
	t.changed = true
	d.dirty.Store(true)
	return nil
}

// rebuildIndexes re-creates a table's registered secondary indexes (after
// mutations invalidated them).
func (t *Table) rebuildIndexes() {
	for _, cols := range t.indexCols {
		t.base.BuildIndex(cols)
	}
}
