package main

// The accuracy audit. On a fresh parked instance (no background
// maintenance) it stages one seeded delta batch, asks the workload's fixed
// audit queries, then folds the batch and takes each query's exact view
// answer as truth. Everything depends only on the seed, so the two audit
// metrics repeat exactly for a seed. Each audit item is one scalar answer
// or one group of a GROUP BY answer; items whose truth is 0 are skipped.

import (
	"fmt"
	"math"
	"math/rand"

	svc "github.com/sampleclean/svc"
	"github.com/sampleclean/svc/client"
	"github.com/sampleclean/svc/internal/estimator"
	"github.com/sampleclean/svc/internal/svcql"
	"github.com/sampleclean/svc/internal/tpcd"
	"github.com/sampleclean/svc/server/api"
)

type auditItem struct{ est, halfWidth, truth float64 }

// auditMetrics returns the median relative error and the median CI
// half-width relative to truth.
func auditMetrics(items []auditItem) (relErr, ciWidth float64) {
	var errs, widths []float64
	for _, it := range items {
		if it.truth == 0 {
			continue
		}
		errs = append(errs, math.Abs(it.est-it.truth)/math.Abs(it.truth))
		widths = append(widths, it.halfWidth/math.Abs(it.truth))
	}
	return median(errs), median(widths)
}

// auditNode runs the audit in process against one node's view: the
// estimates through StaleView's SQL entry points (what server.Server
// calls), the truth after MaintainNow.
func auditNode(sv *svc.StaleView, stage func() error, scalar, grouped []string) ([]auditItem, error) {
	if err := stage(); err != nil {
		return nil, fmt.Errorf("stage audit batch: %w", err)
	}
	var items []auditItem
	for _, q := range scalar {
		ans, err := sv.QuerySQL(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		items = append(items, auditItem{est: ans.Value, halfWidth: (ans.Hi - ans.Lo) / 2})
	}
	groupEst := make([]svc.GroupResult, len(grouped))
	for i, q := range grouped {
		res, err := sv.QueryGroupsSQL(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		groupEst[i] = res
	}
	if err := sv.MaintainNow(); err != nil {
		return nil, err
	}
	for i, q := range scalar {
		ans, err := sv.QuerySQL(q)
		if err != nil {
			return nil, err
		}
		if ans.AsOfEpoch == 0 || sv.Stale() {
			return nil, fmt.Errorf("audit truth for %q read with deltas pending", q)
		}
		items[i].truth = ans.StaleValue
	}
	for i, q := range grouped {
		aq, err := svcql.PlanQuery(sv.View(), q)
		if err != nil {
			return nil, err
		}
		truth, _, err := estimator.GroupExact(sv.View().Data(), aq.Query, aq.GroupBy)
		if err != nil {
			return nil, err
		}
		for key, t := range truth {
			if est, ok := groupEst[i].Groups[key]; ok {
				items = append(items, auditItem{est: est.Value, halfWidth: (est.Hi - est.Lo) / 2, truth: t})
			}
		}
	}
	return items, nil
}

// videoAuditBatch is the dashboard and fleet audit delta: new sessions
// worth 2% of the log plus updates (0.7%) and deletes (0.3%) of distinct
// base sessions on one node; 5% new sessions on the fleet, where Log
// deletes are not routable.
func videoAuditBatch(cfg buildConfig, withUpdates bool) []api.IngestOp {
	videos, visits := cfg.scaled(videoBase, 100), cfg.scaled(visitBase, 2_000)
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	walk := newKeyWalk(visits)
	inserts := visits / 20
	if withUpdates {
		inserts = visits / 50
	}
	var ops []api.IngestOp
	for i := 0; i < inserts; i++ {
		ops = append(ops, client.InsertOp(int64(visits)+5_000_000+int64(i), rng.Int63n(int64(videos))))
	}
	if withUpdates {
		for i := 0; i < visits*7/1000; i++ {
			ops = append(ops, client.UpdateOp(walk.next(), rng.Int63n(int64(videos))))
		}
		for i := 0; i < visits*3/1000; i++ {
			ops = append(ops, client.DeleteOp(walk.next()))
		}
	}
	return ops
}

// videoAuditQueries: SUMs over disjoint videoId ranges of the given
// width, so each answer rests on its own sample rows and the median over
// many of them is steady across seeds. A range must hold several changed
// sample rows, or its interval has zero width.
func videoAuditQueries(cfg buildConfig, width int) []string {
	var qs []string
	for a := 0; a < cfg.scaled(videoBase, 100); a += width {
		qs = append(qs, fmt.Sprintf(`SELECT SUM(visitCount) FROM visitView WHERE videoId >= %d AND videoId < %d`, a, a+width))
		qs = append(qs, fmt.Sprintf(`SELECT SUM(totalDuration) FROM visitView WHERE videoId >= %d AND videoId < %d`, a, a+width))
	}
	return qs
}

func auditDashboard(in *instance, cfg buildConfig) ([]auditItem, error) {
	n := in.nodes[0]
	stage := func() error { return stageLocal(n.d, "Log", videoAuditBatch(cfg, true)) }
	return auditNode(n.views[0], stage, videoAuditQueries(cfg, 40), []string{
		`SELECT ownerId, SUM(visitCount) FROM visitView GROUP BY ownerId`,
		`SELECT ownerId, SUM(totalDuration) FROM visitView GROUP BY ownerId`,
	})
}

func auditChurn(in *instance, cfg buildConfig) ([]auditItem, error) {
	n := in.nodes[0]
	tc := tpcdConfig(cfg)
	stage := func() error {
		m := newChurnMaker(cfg, n.d)
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
		lines := len(m.lines)
		// 2% new lineitems (on new orders), 2.5% updates and 0.5% deletes
		// of distinct base lineitems.
		var orders, items []api.IngestOp
		for len(items) < lines/50 {
			key := m.nextOrder
			m.nextOrder++
			orders = append(orders, client.InsertOp(m.orderRow(rng, key)...))
			for ln := int64(0); ln < 3; ln++ {
				items = append(items, client.InsertOp(m.lineRow(rng, key, ln)...))
			}
		}
		for i := 0; i < lines/40; i++ {
			k := m.lines[m.walk.next()]
			items = append(items, client.UpdateOp(m.lineRow(rng, k[0], k[1])...))
		}
		for i := 0; i < lines/200; i++ {
			k := m.lines[m.walk.next()]
			items = append(items, client.DeleteOp(k[0], k[1]))
		}
		if err := stageLocal(n.d, tpcd.Orders, orders); err != nil {
			return err
		}
		return stageLocal(n.d, tpcd.Lineitem, items)
	}
	// Disjoint month-long order-date ranges, and the small Figure 5
	// groupings, each wide enough to hold several changed sample rows.
	var scalar []string
	for a := 0; a < tc.Days; a += 30 {
		scalar = append(scalar, fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM joinView WHERE o_orderdate >= %d AND o_orderdate < %d`, a, a+30))
	}
	return auditNode(n.views[0], stage, scalar, []string{
		`SELECT l_returnflag, SUM(l_extendedprice) FROM joinView GROUP BY l_returnflag`,
		`SELECT o_orderpriority, SUM(l_quantity) FROM joinView GROUP BY o_orderpriority`,
	})
}

// auditFleet asks through the router, so the estimates are merged shard
// partials; truth is the router's stale value once every shard folded
// the batch.
func auditFleet(in *instance, cfg buildConfig) ([]auditItem, error) {
	c := client.New(in.addr)
	batch := videoAuditBatch(cfg, false)
	for len(batch) > 0 {
		k := min(500, len(batch))
		if _, err := c.Ingest("Log", batch[:k]); err != nil {
			return nil, fmt.Errorf("stage audit batch: %w", err)
		}
		batch = batch[k:]
	}
	qs := videoAuditQueries(cfg, 80)
	items := make([]auditItem, len(qs))
	for i, q := range qs {
		r, err := c.Query(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		items[i] = auditItem{est: r.Estimate.Value, halfWidth: (r.Estimate.Hi - r.Estimate.Lo) / 2}
	}
	for _, n := range in.nodes {
		if err := n.views[0].MaintainNow(); err != nil {
			return nil, err
		}
	}
	for i, q := range qs {
		r, err := c.Query(q)
		if err != nil {
			return nil, err
		}
		if r.Pending || r.StaleValue == nil {
			return nil, fmt.Errorf("audit truth for %q: pending=%v stale=%v", q, r.Pending, r.StaleValue)
		}
		items[i].truth = *r.StaleValue
	}
	return items, nil
}

// stageLocal stages ops on a parked node's table in process.
func stageLocal(d *svc.Database, table string, ops []api.IngestOp) error {
	t := d.Table(table)
	schema := t.Schema() // nothing folds concurrently on a parked node
	for i, o := range ops {
		// Round-trip through JSON numbers, as the wire delivers them.
		o.Row, o.Key = jsonNumbers(o.Row), jsonNumbers(o.Key)
		if err := stageOp(t, schema, o); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

func jsonNumbers(vals []any) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int64:
			out[i] = float64(x)
		case int:
			out[i] = float64(x)
		default:
			out[i] = v
		}
	}
	return out
}
