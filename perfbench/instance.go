package main

// An instance is one running copy of a workload's system: one serving
// node, or a fleet of nodes behind a router, each node with its own
// write-ahead log under the run's scratch directory (audit instances run
// without one).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	svc "github.com/sampleclean/svc"
	"github.com/sampleclean/svc/internal/shard"
	"github.com/sampleclean/svc/server"
)

type node struct {
	d      *svc.Database
	log    *svc.DurableLog
	srv    *server.Server // nil when traced
	traced *tracedNode    // nil unless traced
	views  []*svc.StaleView
	addr   string
	dir    string
}

type instance struct {
	fleet  bool
	nodes  []*node
	router *server.Router
	troute *tracedRouter
	addr   string // where clients send requests
}

var walSeq atomic.Int64

// serveNode attaches a write-ahead log to d (unless cfg.parked),
// materializes the views, and serves them: through server.Server, or
// through the benchmark's traced handlers when cfg.traced. Maintenance
// runs on the workload's cadence unless cfg.parked.
func (in *instance) serveNode(cfg buildConfig, d *svc.Database, viewSQL []string) error {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("wal-%d-%d", os.Getpid(), walSeq.Add(1)))
	n := &node{d: d, dir: dir}
	in.nodes = append(in.nodes, n)
	// Parked (audit) instances run without a write-ahead log: staging a
	// whole audit batch op by op through group commit would take longer
	// than the measured load.
	if !cfg.parked {
		lg, _, err := svc.AttachDurableLog(d, dir, svc.DurableLogOptions{})
		if err != nil {
			return fmt.Errorf("attach wal: %w", err)
		}
		n.log = lg
	}
	maintained := !cfg.parked && !cfg.traced
	if cfg.traced {
		n.traced = newTracedNode(d, cfg.w.refresh)
	} else {
		sc := server.Config{Addr: "127.0.0.1:0"}
		if maintained && cfg.w.name == "churn" {
			sc.SchedInterval = cfg.w.refresh
		}
		n.srv = server.New(d, sc)
	}
	for _, sql := range viewSQL {
		def, err := svc.ViewFromSQL(d, sql)
		if err != nil {
			return err
		}
		opts := []svc.Option{svc.WithSamplingRatio(0.1)}
		if n.srv != nil && n.srv.Scheduler() != nil {
			opts = append(opts, svc.WithScheduler(n.srv.Scheduler()))
		} else if maintained {
			opts = append(opts, svc.WithBackgroundRefresh(cfg.w.refresh))
		}
		sv, err := svc.New(d, def, opts...)
		if err != nil {
			return fmt.Errorf("materialize %s: %w", def.Name, err)
		}
		n.views = append(n.views, sv)
		if n.srv != nil {
			if err := n.srv.Register(sv); err != nil {
				return err
			}
		} else {
			n.traced.addView(sv)
		}
	}
	if n.srv != nil {
		if err := n.srv.Start(); err != nil {
			return err
		}
		n.addr = n.srv.Addr()
	} else {
		if err := n.traced.start(!cfg.parked); err != nil {
			return err
		}
		n.addr = n.traced.addr()
	}
	in.addr = n.addr
	return nil
}

// route puts a router in front of the nodes: server.Router, or the
// benchmark's traced router when cfg.traced.
func (in *instance) route(cfg buildConfig, addrs []string, pl shard.Placement) error {
	if cfg.traced {
		rt, err := newTracedRouter(addrs, pl)
		if err != nil {
			return err
		}
		in.troute = rt
		in.addr = rt.addr()
		return nil
	}
	rt, err := server.NewRouter(server.RouterConfig{Addr: "127.0.0.1:0", Shards: addrs, Placement: pl})
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	in.router = rt
	in.addr = rt.Addr()
	return nil
}

func (in *instance) logs() []*svc.DurableLog {
	var out []*svc.DurableLog
	for _, n := range in.nodes {
		out = append(out, n.log)
	}
	return out
}

// close stops everything the instance started, waits for it, and removes
// its write-ahead logs.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if in.router != nil {
		errs = append(errs, in.router.Shutdown(ctx))
	}
	if in.troute != nil {
		errs = append(errs, in.troute.shutdown(ctx))
	}
	for _, n := range in.nodes {
		if n.srv != nil {
			errs = append(errs, n.srv.Shutdown(ctx))
		}
		if n.traced != nil {
			errs = append(errs, n.traced.shutdown(ctx))
		}
		for _, sv := range n.views {
			errs = append(errs, sv.Close())
		}
		if n.log != nil {
			errs = append(errs, n.log.Close())
		}
		errs = append(errs, os.RemoveAll(n.dir))
	}
	return errors.Join(errs...)
}
