package main

// The traced serving paths. tracedNode answers /query and /ingest with the
// same chain of public calls server.Server makes — JSON decode →
// svcql.Parse → svcql.PlanQuery or svcql.ExecSelectLimit → Database.Pin →
// Cleaner.CleanAt (once per epoch, as StaleView caches it) →
// estimator.RunExact + estimator.{Advise,Corr,AQP,GroupCorr,GroupAQP} →
// JSON encode — and drives maintenance itself on the workload's cadence
// (Pin → CleanAt → CoerceSample → Maintainer.MaintainAt →
// Database.ApplyVersion), timing each call as a span. tracedRouter does
// the same for server.Router: parse, prune, per-shard partial requests
// (hedged as the router hedges) and the estimator partial merge.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	svc "github.com/sampleclean/svc"
	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/db"
	"github.com/sampleclean/svc/internal/estimator"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/shard"
	"github.com/sampleclean/svc/internal/svcql"
	"github.com/sampleclean/svc/internal/view"
	"github.com/sampleclean/svc/server/api"
)

const (
	maxRows    = 1000 // server.Config's default row cap
	confidence = 0.95
)

// servingPair is the view/sample pair published with each traced
// maintenance cycle, carried in the catalog version as an attachment so
// every reader sees the pair that matches its pinned version.
type servingPair struct{ view, sample *relation.Relation }

type tracedView struct {
	sv  *svc.StaleView
	key string

	mu      sync.Mutex
	epoch   uint64
	samples *clean.Samples
}

// nodeCounters are the counts the traced node keeps beside its spans.
type nodeCounters struct {
	pins, cleanLookups, cleanCalls, sampleRows atomic.Int64
	cycles, maintainRows, pendingAtFold        atomic.Int64
}

type tracedNode struct {
	d *svc.Database
	// schemas is read once at start: Table.Schema reads the live base
	// relation without the catalog lock, which races with a fold.
	schemas  map[string]relation.Schema
	views    map[string]*tracedView
	order    []*tracedView
	interval time.Duration
	tr       *tracer
	cnt      nodeCounters
	epoch0   uint64

	srv  *http.Server
	ln   net.Listener
	stop chan struct{}
	done chan struct{}
	err  atomic.Value // first maintenance error
}

func newTracedNode(d *svc.Database, interval time.Duration) *tracedNode {
	return &tracedNode{d: d, views: map[string]*tracedView{}, interval: interval, tr: newTracer()}
}

func (n *tracedNode) addView(sv *svc.StaleView) {
	v := &tracedView{sv: sv, key: "perfbench·" + sv.View().Name()}
	n.d.SetAttachment(v.key, &servingPair{view: sv.View().Data(), sample: sv.Cleaner().StaleSample()})
	n.views[sv.View().Name()] = v
	n.order = append(n.order, v)
}

func (n *tracedNode) start(maintain bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.ln = ln
	n.epoch0 = n.d.Pin().Epoch()
	n.schemas = map[string]relation.Schema{}
	for _, name := range n.d.Tables() {
		n.schemas[name] = n.d.Table(name).Schema()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", n.handleQuery)
	mux.HandleFunc("/ingest", n.handleIngest)
	n.srv = &http.Server{Handler: mux}
	go func() { _ = n.srv.Serve(ln) }() // ErrServerClosed on shutdown
	n.stop, n.done = make(chan struct{}), make(chan struct{})
	if maintain {
		go n.maintainLoop()
	} else {
		close(n.done)
	}
	return nil
}

func (n *tracedNode) addr() string { return n.ln.Addr().String() }

func (n *tracedNode) shutdown(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	close(n.stop)
	<-n.done
	if e, ok := n.err.Load().(error); ok && err == nil {
		err = e
	}
	return err
}

// cleanAt returns the cleaned sample pair for the pinned version,
// computing it once per epoch like StaleView's epoch cache.
func (n *tracedNode) cleanAt(st *spanTree, v *tracedView, pin *db.Version, pair *servingPair) (*clean.Samples, error) {
	n.cnt.cleanLookups.Add(1)
	v.mu.Lock()
	if v.samples != nil && v.epoch == pin.Epoch() {
		s := v.samples
		v.mu.Unlock()
		return s, nil
	}
	v.mu.Unlock()
	var s *clean.Samples
	var err error
	st.span("clean.clean", func() { s, err = v.sv.Cleaner().CleanAt(pin, pair.view, pair.sample) })
	if err != nil {
		return nil, err
	}
	n.cnt.cleanCalls.Add(1)
	n.cnt.sampleRows.Add(int64(s.Fresh.Len()))
	v.mu.Lock()
	if v.samples == nil || pin.Epoch() >= v.epoch {
		v.samples, v.epoch = s, pin.Epoch()
	}
	v.mu.Unlock()
	return s, nil
}

func (n *tracedNode) pin(st *spanTree) *db.Version {
	var p *db.Version
	st.span("db.pin", func() { p = n.d.Pin() })
	n.cnt.pins.Add(1)
	return p
}

func (n *tracedNode) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := n.tr.begin("")
	defer st.finish()
	var req api.QueryRequest
	var err error
	st.span("server.decode", func() { err = json.NewDecoder(r.Body).Decode(&req) })
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var sel *svcql.SelectStmt
	st.span("svcql.parse", func() { _, sel, err = svcql.Parse(req.SQL) })
	if err != nil || sel == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parse: %v", err))
		return
	}
	var resp *api.QueryResponse
	if v := n.views[sel.From]; v != nil {
		resp, err = n.viewQuery(st, v, req.SQL)
	} else {
		st.kind = opSelect.String()
		pin := n.pin(st)
		var rel *relation.Relation
		var total int
		st.span("svcql.exec_select", func() { rel, total, err = svcql.ExecSelectLimit(pin, sel, maxRows) })
		if err == nil {
			resp = &api.QueryResponse{Kind: "rows", Columns: rel.Schema().Names(), RowCount: total,
				Truncated: total > rel.Len(), AsOfEpoch: pin.Epoch(), AppliedSeq: pin.AppliedSeq(),
				Pending: pin.HasPending(), Rows: wireRows(rel)}
		}
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	st.span("server.encode", func() { writeOK(w, resp) })
}

func (n *tracedNode) viewQuery(st *spanTree, v *tracedView, sql string) (*api.QueryResponse, error) {
	var aq svcql.AggQuery
	var err error
	st.span("svcql.plan", func() { aq, err = svcql.PlanQuery(v.sv.View(), sql) })
	if err != nil {
		return nil, err
	}
	pin := n.pin(st)
	pair, ok := pin.Attachment(v.key).(*servingPair)
	if !ok {
		return nil, fmt.Errorf("version %d has no serving pair for %s", pin.Epoch(), v.key)
	}
	samples, err := n.cleanAt(st, v, pin, pair)
	if err != nil {
		return nil, err
	}
	resp := &api.QueryResponse{View: v.sv.View().Name(), AsOfEpoch: pin.Epoch(),
		AppliedSeq: pin.AppliedSeq(), Pending: pin.HasPending()}
	if len(aq.GroupBy) > 0 {
		st.kind = opGroup.String()
		var res estimator.GroupResult
		// The span includes turning the groups into their sorted wire
		// form, which the server also does before encoding.
		st.span("estimator.group", func() {
			var advised string
			if advised, err = estimator.Advise(samples, aq.Query); err != nil {
				return
			}
			if advised == "svc+corr" {
				res, err = estimator.GroupCorr(pair.view, samples, aq.Query, aq.GroupBy, confidence)
			} else {
				res, err = estimator.GroupAQP(samples, aq.Query, aq.GroupBy, confidence)
			}
			if err != nil {
				return
			}
			for key, est := range res.Groups {
				resp.Groups = append(resp.Groups, api.Group{Key: res.Labels[key], Estimate: wireEstimate(est)})
			}
			sort.Slice(resp.Groups, func(i, j int) bool { return resp.Groups[i].Key < resp.Groups[j].Key })
		})
		if err != nil {
			return nil, err
		}
		resp.Kind = "groups"
		return resp, nil
	}
	st.kind = opEstimate.String()
	var stale float64
	st.span("estimator.stale_scan", func() { stale, err = estimator.RunExact(pair.view, aq.Query) })
	if err != nil {
		return nil, err
	}
	var est estimator.Estimate
	st.span("estimator.estimate", func() {
		var advised string
		if advised, err = estimator.Advise(samples, aq.Query); err != nil {
			return
		}
		if advised == "svc+corr" {
			est, err = estimator.Corr(pair.view, samples, aq.Query, confidence)
		} else {
			est, err = estimator.AQP(samples, aq.Query, confidence)
		}
	})
	if err != nil {
		return nil, err
	}
	resp.Kind = "estimate"
	e := wireEstimate(est)
	resp.Estimate, resp.StaleValue = &e, &stale
	return resp, nil
}

func (n *tracedNode) handleIngest(w http.ResponseWriter, r *http.Request) {
	st := n.tr.begin(opIngest.String())
	defer st.finish()
	var req api.IngestRequest
	var err error
	st.span("server.decode", func() { err = json.NewDecoder(r.Body).Decode(&req) })
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t, schema := n.d.Table(req.Table), n.schemas[req.Table]
	if t == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown table %q", req.Table))
		return
	}
	for i, o := range req.Ops {
		st.span("db.stage", func() { err = stageOp(t, schema, o) })
		if err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("op %d: %w", i, err))
			return
		}
	}
	lg := svc.DurableLogOf(n.d)
	resp := &api.IngestResponse{Staged: len(req.Ops), Durable: lg != nil}
	if lg != nil {
		resp.DurableSeq = lg.Stats().SyncedSeq
	}
	st.span("server.encode", func() { writeOK(w, resp) })
}

// stageOp stages one mutation. The benchmark sends only well-formed rows
// of integer and float columns, so JSON numbers map by column kind.
func stageOp(t *svc.Table, schema relation.Schema, o api.IngestOp) error {
	cols := schema.Cols()
	value := func(c relation.Column, v any) relation.Value {
		f, _ := v.(float64)
		if c.Type == relation.KindInt {
			return relation.Int(int64(f))
		}
		return relation.Float(f)
	}
	switch o.Op {
	case "insert", "update":
		row := make(relation.Row, len(cols))
		for i, c := range cols {
			row[i] = value(c, o.Row[i])
		}
		if o.Op == "insert" {
			return t.StageInsert(row)
		}
		return t.StageUpdate(row)
	case "delete":
		key := make([]relation.Value, len(o.Key))
		for i, idx := range schema.Key() {
			key[i] = value(cols[idx], o.Key[i])
		}
		return t.StageDelete(key...)
	}
	return fmt.Errorf("unknown op %q", o.Op)
}

// maintainLoop runs one maintenance cycle per interval while deltas are
// pending, covering every view in one publication.
func (n *tracedNode) maintainLoop() {
	defer close(n.done)
	tick := time.NewTicker(n.interval)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			if !n.d.HasPending() {
				continue
			}
			if err := n.cycle(); err != nil {
				n.err.CompareAndSwap(nil, err)
				return
			}
		}
	}
}

func (n *tracedNode) cycle() error {
	st := n.tr.begin("cycle")
	defer st.finish()
	pin := n.pin(st)
	atts := map[string]any{}
	for _, v := range n.order {
		pair := pin.Attachment(v.key).(*servingPair)
		samples, err := n.cleanAt(st, v, pin, pair)
		if err != nil {
			return err
		}
		var sample, maintained *relation.Relation
		st.span("clean.coerce", func() { sample, err = v.sv.Cleaner().CoerceSample(samples) })
		if err != nil {
			return err
		}
		var ms view.MaintainStats
		st.span("view.maintain", func() { maintained, ms, err = v.sv.Maintainer().MaintainAt(pin, pair.view) })
		if err != nil {
			return err
		}
		n.cnt.maintainRows.Add(ms.RowsTouched)
		atts[v.key] = &servingPair{view: maintained, sample: sample}
	}
	n.cnt.pendingAtFold.Add(int64(pin.PendingRows()))
	var err error
	st.span("db.fold", func() { err = n.d.ApplyVersion(pin, atts) })
	n.cnt.cycles.Add(1)
	return err
}

// ------------------------------------------------------------ router

type routerCounters struct {
	viewQueries, pruned, hedgesFired, hedgeWins atomic.Int64
}

type tracedRouter struct {
	pl     shard.Placement
	shards []string
	hc     *http.Client
	hedge  time.Duration
	tr     *tracer
	cnt    routerCounters

	srv *http.Server
	ln  net.Listener
}

func newTracedRouter(addrs []string, pl shard.Placement) (*tracedRouter, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The same deadline and hedge delay server.Router defaults to.
	const deadline = 5 * time.Second
	r := &tracedRouter{pl: pl, shards: addrs, hedge: deadline / 8, tr: newTracer(), ln: ln,
		hc: &http.Client{Timeout: deadline + time.Second}}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", r.handleQuery)
	mux.HandleFunc("/ingest", r.handleIngest)
	r.srv = &http.Server{Handler: mux}
	go func() { _ = r.srv.Serve(ln) }() // ErrServerClosed on shutdown
	return r, nil
}

func (r *tracedRouter) addr() string { return r.ln.Addr().String() }

func (r *tracedRouter) shutdown(ctx context.Context) error {
	err := r.srv.Shutdown(ctx)
	r.hc.CloseIdleConnections()
	return err
}

// post sends one shard request. A read (hedge set) is hedged like
// server.Router's: a second attempt launches when the first is slow (the
// hedge delay) or has failed, and the first success wins. An ingest is
// sent once, as the router sends it: re-staging is not idempotent.
func (r *tracedRouter) post(st *spanTree, parent, id int, path string, body []byte, out any, hedge bool) error {
	i := st.open("router.shard_rtt", parent)
	defer st.close(i)
	type outcome struct {
		b       []byte
		err     error
		attempt int
	}
	ch := make(chan outcome, 2) // one slot per attempt: a losing attempt never blocks
	attempt := func(n int) {
		resp, err := r.hc.Post("http://"+r.shards[id]+path, "application/json", bytes.NewReader(body))
		if err != nil {
			ch <- outcome{err: err, attempt: n}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("shard %d: %s: %s", id, resp.Status, b)
		}
		ch <- outcome{b, err, n}
	}
	go attempt(1)
	launched, inflight := 1, 1
	second := func() {
		launched++
		inflight++
		r.cnt.hedgesFired.Add(1)
		go attempt(2)
	}
	var hedgeC <-chan time.Time
	if hedge {
		timer := time.NewTimer(r.hedge)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var firstErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				if o.attempt == 2 {
					r.cnt.hedgeWins.Add(1)
				}
				return json.Unmarshal(o.b, out)
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if hedge && launched < 2 {
				second()
				continue
			}
			if inflight == 0 {
				return firstErr
			}
		case <-hedgeC:
			if launched < 2 {
				second()
			}
		}
	}
}

// scatter sends body to the given shards concurrently under one
// router.scatter span, hedging reads (see post).
func (r *tracedRouter) scatter(st *spanTree, ids []int, path string, bodies [][]byte, outs []any, hedge bool) error {
	sc := st.open("router.scatter", 0)
	defer st.close(sc)
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for j, id := range ids {
		wg.Add(1)
		go func(j, id int) {
			defer wg.Done()
			errs[j] = r.post(st, sc, id, path, bodies[j], outs[j], hedge)
		}(j, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *tracedRouter) all() []int {
	ids := make([]int, len(r.shards))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (r *tracedRouter) handleQuery(w http.ResponseWriter, req *http.Request) {
	st := r.tr.begin("")
	defer st.finish()
	var qr api.QueryRequest
	var err error
	st.span("server.decode", func() { err = json.NewDecoder(req.Body).Decode(&qr) })
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var sel *svcql.SelectStmt
	st.span("svcql.parse", func() { _, sel, err = svcql.Parse(qr.SQL) })
	if err != nil || sel == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parse: %v", err))
		return
	}
	var out *api.QueryResponse
	if key, ok := r.pl.Views[sel.From]; ok {
		out, err = r.viewQuery(st, qr, sel, key)
	} else {
		out, err = r.tableSelect(st, qr)
	}
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	st.span("server.encode", func() { writeOK(w, out) })
}

func (r *tracedRouter) viewQuery(st *spanTree, qr api.QueryRequest, sel *svcql.SelectStmt, key shard.Key) (*api.QueryResponse, error) {
	r.cnt.viewQueries.Add(1)
	grouped := len(sel.GroupBy) > 0
	if grouped {
		st.kind = opGroup.String()
	} else {
		st.kind = opEstimate.String()
	}
	id, pruned := -1, false
	if !grouped {
		st.span("router.prune", func() { id, pruned = pruneTo(r.pl, sel, key) })
	}
	if pruned {
		r.cnt.pruned.Add(1)
		body, _ := json.Marshal(qr) // a decoded request always re-encodes
		var resp api.QueryResponse
		if err := r.scatter(st, []int{id}, "/query", [][]byte{body}, []any{&resp}, true); err != nil {
			return nil, err
		}
		resp.Shards = []api.ShardStamp{{Shard: id, AsOfEpoch: resp.AsOfEpoch, AppliedSeq: resp.AppliedSeq}}
		return &resp, nil
	}
	qr.Partial = true
	body, _ := json.Marshal(qr)
	ids := r.all()
	resps := make([]api.QueryResponse, len(ids))
	outs, bodies := make([]any, len(ids)), make([][]byte, len(ids))
	for i := range ids {
		outs[i], bodies[i] = &resps[i], body
	}
	if err := r.scatter(st, ids, "/query", bodies, outs, true); err != nil {
		return nil, err
	}
	out := &api.QueryResponse{View: resps[0].View}
	var err error
	st.span("estimator.merge", func() {
		if grouped {
			err = mergeGroups(out, resps)
		} else {
			err = mergeScalar(out, resps)
		}
	})
	if err != nil {
		return nil, err
	}
	stamp(out, resps)
	return out, nil
}

func mergeScalar(out *api.QueryResponse, resps []api.QueryResponse) error {
	parts := make([]estimator.Partial, 0, len(resps))
	for _, sr := range resps {
		if sr.Partial == nil {
			return fmt.Errorf("shard answered %q, want partial statistics", sr.Kind)
		}
		parts = append(parts, partialFromWire(*sr.Partial))
	}
	merged, err := estimator.MergePartials(parts...)
	if err != nil {
		return err
	}
	est, err := merged.Finalize(confidence)
	if err != nil {
		return err
	}
	out.Kind = "estimate"
	e := wireEstimate(est)
	out.Estimate = &e
	return nil
}

func mergeGroups(out *api.QueryResponse, resps []api.QueryResponse) error {
	sets := make([]estimator.GroupPartialResult, 0, len(resps))
	for _, sr := range resps {
		set := estimator.GroupPartialResult{Groups: map[string]estimator.Partial{}, Labels: map[string]string{}}
		for _, gp := range sr.GroupPartials {
			set.Groups[gp.Key] = partialFromWire(gp.PartialEstimate)
			set.Labels[gp.Key] = gp.Label
		}
		sets = append(sets, set)
	}
	merged, err := estimator.MergeGroupPartials(sets...)
	if err != nil {
		return err
	}
	res, err := merged.Finalize(confidence)
	if err != nil {
		return err
	}
	out.Kind = "groups"
	for key, est := range res.Groups {
		out.Groups = append(out.Groups, api.Group{Key: res.Labels[key], Estimate: wireEstimate(est)})
	}
	sort.Slice(out.Groups, func(i, j int) bool { return out.Groups[i].Key < out.Groups[j].Key })
	return nil
}

func (r *tracedRouter) tableSelect(st *spanTree, qr api.QueryRequest) (*api.QueryResponse, error) {
	st.kind = opSelect.String()
	body, _ := json.Marshal(qr)
	ids := r.all()
	resps := make([]api.QueryResponse, len(ids))
	outs, bodies := make([]any, len(ids)), make([][]byte, len(ids))
	for i := range ids {
		outs[i], bodies[i] = &resps[i], body
	}
	if err := r.scatter(st, ids, "/query", bodies, outs, true); err != nil {
		return nil, err
	}
	out := &api.QueryResponse{Kind: "rows", Columns: resps[0].Columns}
	for _, sr := range resps {
		out.RowCount += sr.RowCount
		out.Truncated = out.Truncated || sr.Truncated
		out.Rows = append(out.Rows, sr.Rows...)
	}
	stamp(out, resps)
	return out, nil
}

// stamp sets per-shard provenance and the laggiest shard's epoch, as
// server.Router does.
func stamp(out *api.QueryResponse, resps []api.QueryResponse) {
	for i, sr := range resps {
		out.Shards = append(out.Shards, api.ShardStamp{Shard: i, AsOfEpoch: sr.AsOfEpoch, AppliedSeq: sr.AppliedSeq})
		if i == 0 || sr.AsOfEpoch < out.AsOfEpoch {
			out.AsOfEpoch = sr.AsOfEpoch
		}
		if i == 0 || sr.AppliedSeq < out.AppliedSeq {
			out.AppliedSeq = sr.AppliedSeq
		}
		out.Pending = out.Pending || sr.Pending
	}
}

func (r *tracedRouter) handleIngest(w http.ResponseWriter, req *http.Request) {
	st := r.tr.begin(opIngest.String())
	defer st.finish()
	var ir api.IngestRequest
	var err error
	st.span("server.decode", func() { err = json.NewDecoder(req.Body).Decode(&ir) })
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	batches := make([][]api.IngestOp, len(r.shards))
	st.span("router.prune", func() {
		for _, o := range ir.Ops {
			var id int
			if id, err = opShard(r.pl, ir.Table, o); err != nil {
				return
			}
			batches[id] = append(batches[id], o)
		}
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var ids []int
	var bodies [][]byte
	var outs []any
	acks := make([]api.IngestResponse, len(r.shards))
	for id, b := range batches {
		if len(b) == 0 {
			continue
		}
		body, _ := json.Marshal(api.IngestRequest{Table: ir.Table, Ops: b})
		ids, bodies, outs = append(ids, id), append(bodies, body), append(outs, &acks[id])
	}
	if err := r.scatter(st, ids, "/ingest", bodies, outs, false); err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	out := &api.IngestResponse{Durable: true}
	for _, id := range ids {
		a := acks[id]
		out.Staged += a.Staged
		out.Durable = out.Durable && a.Durable
		out.Shards = append(out.Shards, api.IngestShardAck{Shard: id, Staged: a.Staged, Durable: a.Durable, DurableSeq: a.DurableSeq})
	}
	st.span("server.encode", func() { writeOK(w, out) })
}

// pruneTo finds the single owning shard when the WHERE clause pins the
// placement columns by top-level equality, as server.Router prunes.
func pruneTo(pl shard.Placement, sel *svcql.SelectStmt, key shard.Key) (int, bool) {
	bind := map[string]any{}
	var walk func(e *svcql.ExprNode)
	walk = func(e *svcql.ExprNode) {
		if e == nil || e.Kind != "binary" {
			return
		}
		switch e.Op {
		case "AND":
			walk(e.L)
			walk(e.R)
		case "=":
			if e.L.Kind == "ident" && e.R.Kind == "number" {
				if f, err := strconv.ParseFloat(e.R.Text, 64); err == nil {
					bind[e.L.Text] = f
				}
			}
		}
	}
	walk(sel.Where)
	vals := make([]any, len(key.Cols))
	for i, c := range key.Cols {
		v, ok := bind[c]
		if !ok {
			return 0, false
		}
		vals[i] = v
	}
	h, err := shard.HashJSON(vals)
	if err != nil {
		return 0, false
	}
	return pl.ShardOf(h), true
}

func opShard(pl shard.Placement, table string, o api.IngestOp) (int, error) {
	key, ok := pl.Tables[table]
	if !ok || o.Op == "delete" {
		return 0, fmt.Errorf("op %q on %s is not routable by row", o.Op, table)
	}
	vals := make([]any, len(key.RowIdx))
	for i, idx := range key.RowIdx {
		vals[i] = o.Row[idx]
	}
	h, err := shard.HashJSON(vals)
	if err != nil {
		return 0, err
	}
	return pl.ShardOf(h), nil
}

// ------------------------------------------------------------ wire

func partialFromWire(w api.PartialEstimate) estimator.Partial {
	agg := map[string]estimator.Agg{"sum": estimator.SumQ, "count": estimator.CountQ, "avg": estimator.AvgQ}[w.Agg]
	return estimator.Partial{Agg: agg, Method: w.Method, Ratio: w.Ratio,
		K: w.K, Stale: w.Stale, Sum: w.Sum, SumSq: w.SumSq,
		CntK: w.CntK, CntStale: w.CntStale, CntSum: w.CntSum, CntSumSq: w.CntSumSq}
}

func wireEstimate(e estimator.Estimate) api.Estimate {
	return api.Estimate{Value: e.Value, Lo: e.Lo, Hi: e.Hi, Confidence: e.Confidence,
		TailProb: e.TailProb, Method: e.Method, K: e.K}
}

func wireRows(rel *relation.Relation) [][]any {
	rows := rel.Rows()
	out := make([][]any, len(rows))
	for i, row := range rows {
		vals := make([]any, len(row))
		for j, v := range row {
			switch v.Kind() {
			case relation.KindNull:
				vals[j] = nil
			case relation.KindInt:
				vals[j] = v.AsInt()
			case relation.KindFloat:
				vals[j] = v.AsFloat()
			case relation.KindBool:
				vals[j] = v.AsBool()
			default:
				vals[j] = v.AsString()
			}
		}
		out[i] = vals
	}
	return out
}

func writeOK(w http.ResponseWriter, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(payload) // a failed write is the client's loss, seen as its error
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: err.Error()})
}
