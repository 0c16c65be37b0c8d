package main

// The traced run: one nominal schedule sent twice, first to the real
// servers (untraced; it also yields the counters the program keeps itself
// — /stats, scheduler, durable log) and then to a fresh instance served
// through the benchmark's traced handlers. The per-layer metrics come from
// the second pass; the difference between the two passes' p50s is the
// tracing overhead.

import (
	"fmt"
	"math/rand"
	"time"
)

func tracedRun(cfg buildConfig, dur time.Duration, rep *report) (*outcome, error) {
	w := cfg.w
	out := &outcome{}
	plain, _, err := timedBuild(cfg)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	mk := w.maker(cfg, plain)
	ops, err := schedule(mk, rand.New(rand.NewSource(cfg.seed+1)), w.mix, w.rate, dur/2)
	if err != nil {
		plain.close()
		return nil, err
	}
	var dg digest
	dg.add(ops)
	out.digest = dg.String()
	rep.note("schedule digest %s (%d ops, sent untraced then traced)", out.digest, len(ops))

	cpu0 := readCPUTimes()
	t := newTarget(plain.addr, w.fleet, connections())
	base := runPhase(t, ops, connections(), 10*dur, nil)
	t.close()
	out.absorb(base)
	walStats := sumWAL(plain)
	sched := schedStats(plain)
	if err := plain.close(); err != nil {
		return nil, fmt.Errorf("shut down: %w", err)
	}

	tcfg := cfg
	tcfg.traced = true
	traced, _, err := timedBuild(tcfg)
	if err != nil {
		return nil, fmt.Errorf("set up traced instance: %w", err)
	}
	t = newTarget(traced.addr, w.fleet, connections())
	res := runPhase(t, ops, connections(), 10*dur, nil)
	t.close()
	out.absorb(res)
	out.checkSteal(rep, cpu0, readCPUTimes())
	var node *tracedNode
	var epochs uint64
	if n := traced.nodes[0]; n.traced != nil {
		node = n.traced
		epochs = n.d.Pin().Epoch() - node.epoch0
	}
	router := traced.troute
	if err := traced.close(); err != nil {
		return nil, fmt.Errorf("shut down traced instance: %w", err)
	}
	var sum *traceSummary
	if router != nil {
		sum = router.tr.summarize()
	} else {
		sum = node.tr.summarize()
	}

	meanOf := func(span string, perUnit float64) float64 { return mean(sum.self[span]) / perUnit }
	us, msec := 1.0, 1e3
	rep.add("server.decode_us", meanOf("server.decode", us), "us")
	rep.add("server.encode_us", meanOf("server.encode", us), "us")
	rep.add("server.rejected", float64(base.rejected), "count")
	rep.add("server.timed_out", float64(base.timedOut), "count")
	rep.add("svcql.parse_us", meanOf("svcql.parse", us), "us")
	rep.add("svcql.plan_us", meanOf("svcql.plan", us), "us")
	rep.add("svcql.exec_select_ms", meanOf("svcql.exec_select", msec), "ms")
	rep.add("estimator.stale_scan_us", meanOf("estimator.stale_scan", us), "us")
	rep.add("estimator.estimate_us", meanOf("estimator.estimate", us), "us")
	rep.add("estimator.group_us", meanOf("estimator.group", us), "us")
	rep.add("estimator.merge_us", meanOf("estimator.merge", us), "us")

	c := &nodeCounters{}
	if node != nil {
		c = &node.cnt
	}
	rep.add("clean.clean_ms", meanOf("clean.clean", msec), "ms")
	rep.add("clean.calls", float64(c.cleanCalls.Load()), "count")
	rep.add("clean.epoch_reuse_ratio", ratio(c.cleanLookups.Load()-c.cleanCalls.Load(), c.cleanLookups.Load()), "ratio")
	rep.add("clean.sample_rows", ratio(c.sampleRows.Load(), c.cleanCalls.Load()), "rows")
	rep.add("db.pin_us", meanOf("db.pin", us), "us")
	rep.add("db.pin_publish_ratio", ratio(c.pins.Load(), int64(epochs)), "ratio")
	rep.add("db.stage_us_p50", quantileOr0(sum.self["db.stage"], 0.5), "us")
	rep.add("db.stage_us_p99", quantileOr0(sum.self["db.stage"], 0.99), "us")
	rep.add("db.fold_ms", meanOf("db.fold", msec), "ms")
	rep.add("db.pending_rows_at_fold", ratio(c.pendingAtFold.Load(), c.cycles.Load()), "rows")
	rep.add("view.maintain_ms", meanOf("view.maintain", msec), "ms")
	rep.add("view.delta_rows", ratio(c.maintainRows.Load(), int64(len(sum.self["view.maintain"]))), "rows")

	rep.add("sched.cycle_ms", mean(sum.rootUs["cycle"])/msec, "ms")
	rep.add("sched.cycles", float64(sched.cycles), "count")
	rep.add("sched.shared_hit_ratio", ratio(int64(sched.sharedHits), int64(sched.sharedHits+sched.sharedMiss)), "ratio")
	rep.add("sched.deferred", float64(sched.deferred), "count")

	rep.add("wal.sync_ms_mean", walStats.syncMean, "ms")
	rep.add("wal.sync_ms_p99", walStats.syncP99, "ms")
	rep.add("wal.records_per_sync", ratio(int64(walStats.appends), int64(walStats.syncs)), "records")
	rep.add("wal.bytes_per_record", ratio(walStats.diskBytes, int64(walStats.appends+walStats.boundaries)), "bytes")
	rep.add("wal.stalls", float64(walStats.stalls), "count")

	rc := &routerCounters{}
	if router != nil {
		rc = &router.cnt
	}
	rep.add("router.scatter_ms", mean(sum.dur["router.scatter"])/msec, "ms")
	rep.add("router.shard_rtt_ms", mean(sum.dur["router.shard_rtt"])/msec, "ms")
	selfUs := 0.0
	if router != nil {
		var roots, scat float64
		for _, ds := range sum.rootUs {
			for _, d := range ds {
				roots += d
			}
		}
		for _, d := range sum.dur["router.scatter"] {
			scat += d
		}
		selfUs = (roots - scat) / float64(max(1, len(sum.dur["router.scatter"])))
	}
	rep.add("router.self_us", selfUs, "us")
	rep.add("router.pruned_ratio", ratio(rc.pruned.Load(), rc.viewQueries.Load()), "ratio")
	rep.add("router.hedges_fired", float64(rc.hedgesFired.Load()), "count")
	rep.add("router.hedge_win_ratio", ratio(rc.hedgeWins.Load(), rc.hedgesFired.Load()), "ratio")

	p99, worst := quantile(base.genLag, 0.99), quantile(base.genLag, 1)
	rep.add("gen.lag_ms_p99", p99, "ms")
	rep.add("gen.lag_ms_max", worst, "ms")
	out.checkLag("untraced pass", base.genLag)
	out.checkLag("traced pass", res.genLag)

	// Trace completeness and overhead per op type.
	for k := opEstimate; k < nOpKinds; k++ {
		cov, ok := sum.coverage[k.String()]
		if !ok {
			return nil, fmt.Errorf("traced run has no %s spans", k)
		}
		rep.add("trace.coverage_"+k.String(), cov, "ratio")
		rep.note("trace %s: layers cover %.1f%% of the root span, %.1f%% uncovered (%d ops)",
			k, 100*cov, 100*(1-cov), len(sum.rootUs[k.String()]))
		if cov < 0.9 && out.violation == nil {
			out.violation = fmt.Errorf("trace coverage of %s is %.1f%%, want ≥ 90%%", k, 100*cov)
		}
		over := quantileOr0(res.lat[k], 0.5) - quantileOr0(base.lat[k], 0.5)
		rep.add("trace.overhead_"+k.String()+"_ms", over, "ms")
	}
	return out, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

type walSummary struct {
	syncMean, syncP99                  float64
	appends, syncs, boundaries, stalls uint64
	diskBytes                          int64
}

// sumWAL sums the durable logs' counters over an instance's nodes and
// averages their sync times.
func sumWAL(in *instance) walSummary {
	var s walSummary
	for _, lg := range in.logs() {
		st := lg.Stats()
		s.syncMean += st.MeanSyncMillis / float64(len(in.nodes))
		s.syncP99 = max(s.syncP99, st.P99SyncMillis)
		s.appends += st.Appends
		s.syncs += st.Syncs
		s.boundaries += st.Boundaries
		s.stalls += st.Stalls
		s.diskBytes += st.DiskBytes
	}
	return s
}

type schedSummary struct{ cycles, sharedHits, sharedMiss, deferred uint64 }

// schedStats reads maintenance-driver counters: the error-budget
// scheduler's where one runs, otherwise the per-view refreshers'.
func schedStats(in *instance) schedSummary {
	var s schedSummary
	for _, n := range in.nodes {
		if n.srv != nil && n.srv.Scheduler() != nil {
			st := n.srv.Scheduler().Stats()
			s.cycles += st.GroupCycles
			s.sharedHits += st.SharedHits
			s.sharedMiss += st.SharedMiss
			s.deferred += st.Deferred
			continue
		}
		for _, sv := range n.views {
			if r := sv.Refresher(); r != nil {
				s.cycles += r.Cycles()
				s.deferred += r.SkipsDeferred()
			}
		}
	}
	return s
}
