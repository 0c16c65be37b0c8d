// Package svc is a Go implementation of Stale View Cleaning (Krishnan,
// Wang, Franklin, Goldberg, Kraska — "Stale View Cleaning: Getting Fresh
// Answers from Stale Materialized Views", PVLDB 8(12), 2015).
//
// Materialized views go stale between maintenance periods. SVC cleans a
// deterministic hash sample of the stale view by pushing the sampling
// operator through the view's maintenance strategy, then answers aggregate
// queries from the pair of corresponding samples: either directly
// (SVC+AQP) or as a correction to the stale answer (SVC+CORR), with
// confidence intervals. An optional outlier index keeps heavy-tail records
// exact.
//
// The package is a facade over the engine packages in internal/: an
// in-memory relational algebra with Definition 2 key derivation, hash
// push-down (Definition 3 / Theorem 1), change-table and recompute
// maintenance strategies, the estimators of Section 5, and the outlier
// machinery of Section 6.
//
// Beyond per-view serving, the package plans maintenance across the whole
// catalog: MaintainViews runs one group cycle over several views — one
// pinned version, one subplan cache so shared delta scans evaluate once,
// one partial fold covering exactly the group's base tables — and
// Scheduler (NewScheduler, WithScheduler) decides each tick which views
// that cycle should cover, ranking them by expected error reduction per
// unit maintenance cost under the observed query mix, with a starvation
// bound. See DESIGN.md "Multi-view maintenance optimizer".
//
// Quickstart:
//
//	d := svc.NewDatabase()
//	// ... create tables, load data (svc.Col, svc.NewSchema, Table.Insert)
//	sv, _ := svc.New(d, svc.ViewDefinition{Name: "visits", Plan: plan},
//		svc.WithSamplingRatio(0.1))
//	// ... stage updates (Table.StageInsert / StageUpdate / StageDelete)
//	est, _ := sv.Query(svc.Sum("visitCount", nil))
//	fmt.Println(est.Value, est.Lo, est.Hi)
package svc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/db"
	"github.com/sampleclean/svc/internal/estimator"
	"github.com/sampleclean/svc/internal/hashing"
	"github.com/sampleclean/svc/internal/outlier"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/svcql"
	"github.com/sampleclean/svc/internal/view"
)

// Mode selects the estimator a StaleView uses for Query.
type Mode uint8

// Estimation modes.
const (
	// Auto applies the Section 5.2.2 break-even analysis per query:
	// SVC+CORR while the staleness is low, SVC+AQP beyond it.
	Auto Mode = iota
	// Corr always corrects the stale answer (SVC+CORR).
	Corr
	// AQP always estimates directly from the clean sample (SVC+AQP).
	AQP
)

// Option configures New.
type Option func(*config)

type config struct {
	ratio      float64
	confidence float64
	hasher     hashing.Hasher
	mode       Mode
	outliers   *outlierSpec
	parallel   int
	columnar   *bool
	refresh    time.Duration
	durableDir string
	sched      *Scheduler
}

type outlierSpec struct {
	table, attr string
	limit       int
	sigma       float64 // threshold = mean + sigma·stdev; 0 means top-limit
}

// WithSamplingRatio sets the sample ratio m (default 0.10).
func WithSamplingRatio(m float64) Option { return func(c *config) { c.ratio = m } }

// WithConfidence sets the confidence level for intervals (default 0.95).
func WithConfidence(level float64) Option { return func(c *config) { c.confidence = level } }

// WithHasher overrides the deterministic hash function (default finalized
// FNV-64; SHA1 available for maximal uniformity).
func WithHasher(h Hasher) Option { return func(c *config) { c.hasher = h } }

// WithMode fixes the estimator choice (default Auto).
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithParallelism sets the intra-operator worker count for every
// evaluation this view triggers — materialization, maintenance, and
// sampled cleaning all inherit it. The setting is stored on the shared
// database engine (equivalent to calling Database.SetParallelism), so it
// applies to other views over the same database too. Parallel evaluation
// partitions hash-join build/probe and aggregation by key hash and
// produces results identical to serial evaluation; 0 and 1 mean serial.
func WithParallelism(n int) Option { return func(c *config) { c.parallel = n } }

// WithColumnar enables or disables the columnar batch path for every
// evaluation this view triggers (materialization, maintenance, sampled
// cleaning, svcql execution). Like WithParallelism, the setting lives on
// the shared database engine (Database.SetColumnar). Columnar execution
// is the default and produces results identical to the row-at-a-time
// pipeline; turning it off exists for A/B benchmarking (svcbench
// -columnar=off) and debugging.
func WithColumnar(on bool) Option { return func(c *config) { c.columnar = &on } }

// WithOutlierIndex attaches a Section 6 outlier index on table.attr,
// keeping the top `limit` records above an adaptive top-k threshold.
func WithOutlierIndex(table, attr string, limit int) Option {
	return func(c *config) { c.outliers = &outlierSpec{table: table, attr: attr, limit: limit} }
}

// WithBackgroundRefresh starts a background Refresher at construction:
// every interval, if any base table has staged deltas, a full
// maintenance+cleaning cycle runs on a pinned snapshot and publishes its
// results atomically, while Query keeps serving from the previous
// publication. Stop it with StaleView.Close (or Refresher.Stop).
func WithBackgroundRefresh(interval time.Duration) Option {
	return func(c *config) { c.refresh = interval }
}

// WithScheduler registers the view with an error-budget refresh scheduler
// (see Scheduler) instead of a fixed-interval refresher: the scheduler
// decides each tick whether this view's expected query error justifies a
// maintenance cycle, and batches it with other views sharing delta
// subplans. Combine with WithBackgroundRefresh only if you want the
// refresher as a fallback — it defers to the scheduler while registered
// (Refresher.SkipsDeferred counts those ticks).
func WithScheduler(s *Scheduler) Option { return func(c *config) { c.sched = s } }

// WithOutlierSigmaThreshold switches the outlier threshold policy to
// mean + sigma·stdev (Section 6.1's alternative policy).
func WithOutlierSigmaThreshold(table, attr string, limit int, sigma float64) Option {
	return func(c *config) {
		c.outliers = &outlierSpec{table: table, attr: attr, limit: limit, sigma: sigma}
	}
}

// StaleView is the top-level handle: a materialized view, its maintenance
// strategy, the persistent sample view, and the estimators.
//
// Query, QueryGroups, CleanSelect, and Clean are safe for concurrent use
// with each other, with staged updates (Table.StageInsert/Update/Delete),
// and with maintenance (MaintainNow or a background Refresher): every
// query evaluates against one pinned catalog version and the view/sample
// pair published with it, so its answer is internally consistent and
// stamped with the version's epoch (Estimate.AsOfEpoch). MaintainNow
// serializes with itself; staging serializes on the database writer lock.
type StaleView struct {
	db      *db.Database
	view    *view.View
	maint   *view.Maintainer
	cleaner *clean.Cleaner
	conf    float64
	mode    Mode
	outSpec *outlierSpec
	outMz   *outlier.Materializer
	outIx   *outlier.Index

	key     string     // serving-attachment key in db versions
	maintMu sync.Mutex // one maintenance cycle at a time

	// Per-epoch caches: the cleaned sample pair and the outlier partition
	// are pure functions of the pinned version and are treated as
	// read-only by the estimators, so concurrent readers at the same
	// epoch share one evaluation of each.
	sampleCache  epochCache[*Samples]
	outlierCache epochCache[*estimator.OutlierSet]

	refresher atomic.Pointer[Refresher]

	// queries counts answered queries (Query/QueryGroups/CleanSelect);
	// sched points at the Scheduler managing this view, when one does.
	// Together they feed the error-budget refresh scheduler's query-mix
	// model (scheduler.go).
	queries atomic.Uint64
	sched   atomic.Pointer[Scheduler]

	// appliedSeq records the catalog's maintenance-boundary counter as of
	// this view's last publication — how far maintenance has actually
	// carried this view, as opposed to the catalog-wide epoch which also
	// advances on staging. Stats readers pair it with the epoch to compute
	// per-view lag.
	appliedSeq atomic.Uint64
}

// AppliedSeq reports the catalog's maintenance-boundary counter as of
// this view's last maintenance publication (0 before the first cycle).
func (sv *StaleView) AppliedSeq() uint64 { return sv.appliedSeq.Load() }

// noteQuery feeds one answered query into the scheduling model.
func (sv *StaleView) noteQuery() {
	sv.queries.Add(1)
	if s := sv.sched.Load(); s != nil {
		s.noteQuery(sv.view.Name())
	}
}

// Queries reports how many queries this view has answered.
func (sv *StaleView) Queries() uint64 { return sv.queries.Load() }

// Scheduled reports whether an error-budget Scheduler manages this view's
// maintenance. Background Refreshers defer their cycles while it does.
func (sv *StaleView) Scheduled() bool { return sv.sched.Load() != nil }

// Scheduler returns the Scheduler managing this view, or nil.
func (sv *StaleView) Scheduler() *Scheduler { return sv.sched.Load() }

// epochCache shares one computed value per publication epoch among
// concurrent readers. The cache check is a short lock; the computation
// runs unlocked, so a fresh epoch never serializes readers — concurrent
// misses duplicate the work once and the newest-epoch result wins.
type epochCache[T any] struct {
	mu    sync.Mutex
	epoch uint64
	val   T
	valid bool
}

func (c *epochCache[T]) get(epoch uint64, compute func() (T, error)) (T, error) {
	c.mu.Lock()
	if c.valid && c.epoch == epoch {
		v := c.val
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	v, err := compute()
	if err != nil {
		var zero T
		return zero, err
	}
	c.mu.Lock()
	if !c.valid || epoch >= c.epoch {
		c.val, c.epoch, c.valid = v, epoch, true
	}
	c.mu.Unlock()
	return v, nil
}

// servingState is the (S, Ŝ) pair published with each maintenance cycle.
// It rides along inside db versions so a reader pinning any version gets
// base tables, pending deltas, view, and sample from one consistent cut.
type servingState struct {
	view   *relation.Relation // S as of the last maintenance boundary
	sample *relation.Relation // Ŝ corresponding to it
}

// servingKey names a view's serving attachment inside database versions.
func servingKey(viewName string) string { return "svc·" + viewName }

// pinServing pins the current catalog version together with the serving
// state published for this view — the consistent read set of one query.
//
// The fast path checks that the published attachment still matches the
// live view/sample pointers. A mismatch means someone drove maintenance
// through the lower-level handles (Maintainer().Maintain + ApplyDeltas +
// Cleaner().Adopt — the pre-serving workflow) without republishing; the
// slow path serializes with MaintainNow and republishes the live
// pointers, so those flows keep answering correctly. While MaintainNow
// itself is mid-publication the mismatch window is the instant between
// its catalog publish and its pointer swaps; a reader landing there just
// waits out the tail of the cycle on maintMu.
func (sv *StaleView) pinServing() (*db.Version, *servingState) {
	pin := sv.db.Pin()
	if st, ok := pin.Attachment(sv.key).(*servingState); ok &&
		st.view == sv.view.Data() && st.sample == sv.cleaner.StaleSample() {
		return pin, st
	}
	sv.maintMu.Lock()
	defer sv.maintMu.Unlock()
	return sv.pinServingLocked()
}

// pinServingLocked is pinServing's core; the caller holds maintMu, so
// live pointers cannot move concurrently and republishing them is safe.
func (sv *StaleView) pinServingLocked() (*db.Version, *servingState) {
	pin := sv.db.Pin()
	if st, ok := pin.Attachment(sv.key).(*servingState); ok &&
		st.view == sv.view.Data() && st.sample == sv.cleaner.StaleSample() {
		return pin, st
	}
	st := &servingState{view: sv.view.Data(), sample: sv.cleaner.StaleSample()}
	sv.db.SetAttachment(sv.key, st)
	return sv.db.Pin(), st
}

// cleanPinned returns the corresponding sample pair for the pinned
// version, sharing one evaluation among all readers at the same epoch.
func (sv *StaleView) cleanPinned(pin *db.Version, st *servingState) (*Samples, error) {
	return sv.sampleCache.get(pin.Epoch(), func() (*Samples, error) {
		return sv.cleaner.CleanAt(pin, st.view, st.sample)
	})
}

// New materializes the view over the database's current contents, chooses
// a maintenance strategy (change-table IVM when the definition's shape
// allows, recompute otherwise), derives the sampled cleaning expression by
// hash push-down, and materializes the initial sample view.
func New(d *Database, def ViewDefinition, opts ...Option) (*StaleView, error) {
	cfg := config{ratio: 0.10, confidence: 0.95, mode: Auto}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.parallel > 0 {
		d.SetParallelism(cfg.parallel)
	}
	if cfg.columnar != nil {
		d.SetColumnar(*cfg.columnar)
	}
	if cfg.durableDir != "" && DurableLogOf(d) == nil {
		// Attach (and recover) before materializing, so the view's initial
		// contents already include any deltas a previous run staged durably.
		if _, _, err := AttachDurableLog(d, cfg.durableDir, DurableLogOptions{}); err != nil {
			return nil, err
		}
	}
	v, err := view.Materialize(d, def)
	if err != nil {
		return nil, err
	}
	m, err := view.NewMaintainer(v)
	if err != nil {
		return nil, err
	}
	c, err := clean.New(m, cfg.ratio, cfg.hasher)
	if err != nil {
		return nil, err
	}
	if cfg.parallel > 0 {
		// An explicit SetParallelism pins the cleaner in both directions
		// (serial stays serial under a parallel pin), so only forward a
		// worker count the caller actually chose; otherwise the cleaner
		// inherits each pinned version's parallelism.
		c.SetParallelism(cfg.parallel)
	}
	sv := &StaleView{db: d, view: v, maint: m, cleaner: c, conf: cfg.confidence, mode: cfg.mode,
		outSpec: cfg.outliers, key: servingKey(def.Name)}
	if cfg.outliers != nil {
		if err := sv.buildOutlierIndex(); err != nil {
			return nil, err
		}
	}
	// Publish the initial serving state so concurrent queries pin a
	// consistent (version, view, sample) triple from the first call, and
	// route the cleaner's own Clean through the same consistent lookup.
	d.SetAttachment(sv.key, &servingState{view: v.Data(), sample: c.StaleSample()})
	c.SetServingSource(d, func() (*db.Version, *relation.Relation, *relation.Relation) {
		pin, st := sv.pinServing()
		return pin, st.view, st.sample
	})
	if cfg.sched != nil {
		if err := cfg.sched.Register(sv); err != nil {
			return nil, err
		}
	}
	if cfg.refresh > 0 {
		sv.StartBackgroundRefresh(cfg.refresh)
	}
	return sv, nil
}

func (sv *StaleView) buildOutlierIndex() error {
	spec := sv.outSpec
	t := sv.db.Table(spec.table)
	if t == nil {
		return fmt.Errorf("svc: outlier index on unknown table %q", spec.table)
	}
	var thr float64
	var err error
	if spec.sigma > 0 {
		thr, err = outlier.SigmaThreshold(t, spec.attr, spec.sigma)
	} else {
		thr, err = outlier.TopKThreshold(t, spec.attr, spec.limit)
	}
	if err != nil {
		return err
	}
	ix, err := outlier.NewIndex(spec.table, spec.attr, t.Schema(), thr, spec.limit)
	if err != nil {
		return err
	}
	if !outlier.Eligible(sv.cleaner, ix) {
		return fmt.Errorf("svc: outlier index on %s is not eligible: the cleaner does not sample that relation (Definition 5)", spec.table)
	}
	mz, err := outlier.NewMaterializer(sv.view, ix)
	if err != nil {
		return err
	}
	sv.outIx, sv.outMz = ix, mz
	return nil
}

// View returns the (possibly stale) materialized view.
func (sv *StaleView) View() *View { return sv.view }

// Maintainer returns the maintenance strategy owner.
func (sv *StaleView) Maintainer() *ViewMaintainer { return sv.maint }

// Cleaner returns the sampled cleaner (exposes the optimized cleaning
// expression and the persistent sample).
func (sv *StaleView) Cleaner() *ViewCleaner { return sv.cleaner }

// Stale reports whether any base table has staged deltas.
func (sv *StaleView) Stale() bool { return sv.db.HasPending() }

// Clean materializes the corresponding samples (Ŝ, Ŝ′) against the
// currently staged deltas. Most callers use Query instead; Clean is the
// low-level hook for custom estimation.
func (sv *StaleView) Clean() (*Samples, error) {
	pin, st := sv.pinServing()
	return sv.cleaner.CleanAt(pin, st.view, st.sample)
}

// Answer is a query result: the estimate plus the stale baseline for
// comparison.
type Answer struct {
	Estimate
	// StaleValue is the uncorrected answer from the stale view.
	StaleValue float64
}

// Query estimates an aggregate query's up-to-date answer from a freshly
// cleaned sample pair. The estimator follows the configured Mode; outlier
// partitions are merged automatically when an index is attached.
//
// Query is safe for concurrent use: it pins one published catalog version
// and evaluates everything — cleaning, the stale baseline, the outlier
// partition, the estimate — against that version's immutable relations.
// The answer's AsOfEpoch records which version it was.
func (sv *StaleView) Query(q Query) (Answer, error) {
	sv.noteQuery()
	pin, st := sv.pinServing()
	samples, err := sv.cleanPinned(pin, st)
	if err != nil {
		return Answer{}, err
	}
	staleVal, err := estimator.RunExact(st.view, q)
	if err != nil {
		return Answer{}, err
	}
	var o *estimator.OutlierSet
	if sv.outMz != nil {
		o, err = sv.outlierSet(pin, st)
		if err != nil {
			return Answer{}, err
		}
	}
	mode := sv.mode
	if mode == Auto {
		advised, err := estimator.Advise(samples, q)
		if err != nil {
			return Answer{}, err
		}
		if advised == "svc+corr" {
			mode = Corr
		} else {
			mode = AQP
		}
	}
	var est Estimate
	switch mode {
	case Corr:
		if o != nil {
			est, err = estimator.CorrWithOutliers(st.view, samples, o, q, sv.conf)
		} else {
			est, err = estimator.CorrFromBaseline(staleVal, samples, q, sv.conf)
		}
	default:
		if o != nil {
			est, err = estimator.AQPWithOutliers(samples, o, q, sv.conf)
		} else {
			est, err = estimator.AQP(samples, q, sv.conf)
		}
	}
	if err != nil {
		return Answer{}, err
	}
	est.AsOfEpoch = pin.Epoch()
	return Answer{Estimate: est, StaleValue: staleVal}, nil
}

// outlierSet returns the outlier partition for the pinned version,
// sharing one evaluation among all readers at the same epoch. A cache
// miss builds a fresh index off to the side with no lock held, so
// readers never serialize on the O(|table|) rebuild.
func (sv *StaleView) outlierSet(pin *db.Version, st *servingState) (*estimator.OutlierSet, error) {
	return sv.outlierCache.get(pin.Epoch(), func() (*estimator.OutlierSet, error) {
		base := pin.Base(sv.outSpec.table)
		if base == nil {
			return nil, fmt.Errorf("svc: outlier table %q missing from pinned version", sv.outSpec.table)
		}
		// sv.outIx is immutable after construction; it contributes only
		// the threshold configuration here.
		ix, err := outlier.NewIndex(sv.outSpec.table, sv.outSpec.attr, base.Schema(), sv.outIx.Threshold(), sv.outSpec.limit)
		if err != nil {
			return nil, err
		}
		if err := ix.BuildFromVersion(pin); err != nil {
			return nil, err
		}
		return sv.outMz.MaterializeRecords(pin, st.view, ix.Records())
	})
}

// QueryGroups estimates a group-by aggregate per group. Like Query, it is
// safe for concurrent use and evaluates against one pinned version.
func (sv *StaleView) QueryGroups(q Query, groupBy ...string) (GroupResult, error) {
	sv.noteQuery()
	pin, st := sv.pinServing()
	samples, err := sv.cleanPinned(pin, st)
	if err != nil {
		return GroupResult{}, err
	}
	mode := sv.mode
	if mode == Auto {
		advised, err := estimator.Advise(samples, q)
		if err != nil {
			return GroupResult{}, err
		}
		if advised == "svc+corr" {
			mode = Corr
		} else {
			mode = AQP
		}
	}
	var res GroupResult
	if mode == Corr {
		res, err = estimator.GroupCorr(st.view, samples, q, groupBy, sv.conf)
	} else {
		res, err = estimator.GroupAQP(samples, q, groupBy, sv.conf)
	}
	if err != nil {
		return GroupResult{}, err
	}
	for k, est := range res.Groups {
		est.AsOfEpoch = pin.Epoch()
		res.Groups[k] = est
	}
	return res, nil
}

// CleanSelect answers SELECT * WHERE pred with sampled corrections applied
// (Appendix 12.1.2): updated rows overwritten, sampled missing rows added,
// sampled superfluous rows removed, plus count estimates of each error
// class.
func (sv *StaleView) CleanSelect(pred Expr) (*SelectResult, error) {
	sv.noteQuery()
	pin, st := sv.pinServing()
	samples, err := sv.cleanPinned(pin, st)
	if err != nil {
		return nil, err
	}
	res, err := estimator.CleanSelect(st.view, samples, pred, sv.conf)
	if err != nil {
		return nil, err
	}
	res.Updated.AsOfEpoch = pin.Epoch()
	res.Added.AsOfEpoch = pin.Epoch()
	res.Removed.AsOfEpoch = pin.Epoch()
	return res, nil
}

// MaintainNow runs full incremental maintenance (the deferred-maintenance
// boundary): the view is brought up to date, the staged deltas are folded
// into the base tables, and the sample view rolls forward with them.
//
// The whole cycle evaluates against one pinned catalog version while
// queries keep being served from the previous publication, then publishes
// the maintained view, the rolled-forward sample, and the delta fold in a
// single version swap. Updates staged while the cycle ran stay pending
// (db.ApplyVersion re-bases them) and are picked up by the next cycle.
func (sv *StaleView) MaintainNow() error {
	sv.maintMu.Lock()
	defer sv.maintMu.Unlock()
	pin, st := sv.pinServingLocked()
	samples, err := sv.cleanPinned(pin, st)
	if err != nil {
		return err
	}
	// By Theorem 1 the cleaned sample equals η(S′), so adopting it keeps
	// the sample corresponding to the maintained view without rescanning.
	newSample, err := sv.cleaner.CoerceSample(samples)
	if err != nil {
		return err
	}
	maintained, _, err := sv.maint.MaintainAt(pin, st.view)
	if err != nil {
		return err
	}
	if err := sv.db.ApplyVersion(pin, map[string]any{
		sv.key: &servingState{view: maintained, sample: newSample},
	}); err != nil {
		return err
	}
	// Keep the live accessors (View().Data(), Cleaner().StaleSample()) in
	// step with the publication.
	if err := sv.view.Replace(maintained); err != nil {
		return err
	}
	sv.cleaner.AdoptRelation(newSample)
	sv.appliedSeq.Store(sv.db.Pin().AppliedSeq())
	return nil
}

// ExactQuery evaluates q exactly on the current (possibly stale) view —
// the "no maintenance" baseline. It reads the view published with the
// current catalog version, so once Stale reports no pending deltas the
// answer includes every folded delta (a cycle between its fold and its
// pointer swaps is waited out).
func (sv *StaleView) ExactQuery(q Query) (float64, error) {
	_, st := sv.pinServing()
	return estimator.RunExact(st.view, q)
}

// ViewFromSQL compiles a CREATE VIEW statement in the paper's SQL dialect
// into a view definition over the database's base tables:
//
//	def, err := svc.ViewFromSQL(d, `
//	    CREATE VIEW visitView AS
//	    SELECT videoId, ownerId, COUNT(1) AS visitCount
//	    FROM Log JOIN Video ON Log.videoId = Video.videoId
//	    GROUP BY videoId, ownerId`)
//
// See package internal/svcql for the grammar.
func ViewFromSQL(d *Database, sql string) (ViewDefinition, error) {
	return svcql.PlanView(d, sql)
}

// QuerySQL parses and answers an aggregate query in the paper's SQL
// dialect against this view:
//
//	ans, err := sv.QuerySQL(`SELECT COUNT(1) FROM visitView WHERE visitCount > 100`)
//
// Group-by queries go through QueryGroupsSQL.
func (sv *StaleView) QuerySQL(sql string) (Answer, error) {
	aq, err := svcql.PlanQuery(sv.view, sql)
	if err != nil {
		return Answer{}, err
	}
	if len(aq.GroupBy) > 0 {
		return Answer{}, fmt.Errorf("svc: query has GROUP BY; use QueryGroupsSQL")
	}
	return sv.Query(aq.Query)
}

// QueryGroupsSQL parses and answers a group-by aggregate in SQL.
func (sv *StaleView) QueryGroupsSQL(sql string) (GroupResult, error) {
	aq, err := svcql.PlanQuery(sv.view, sql)
	if err != nil {
		return GroupResult{}, err
	}
	return sv.QueryGroups(aq.Query, aq.GroupBy...)
}
