package main

// The three workloads: their datasets, request mixes, rates and audit
// queries. Why each exists is in README.md.

import (
	"fmt"
	"math/rand"
	"time"

	svc "github.com/sampleclean/svc"
	"github.com/sampleclean/svc/client"
	"github.com/sampleclean/svc/internal/shard"
	"github.com/sampleclean/svc/internal/tpcd"
	"github.com/sampleclean/svc/server/api"
)

type workload struct {
	name string
	// mix is the nominal phase's share of each operation kind; rate its
	// offered ops/s. Ladder rungs keep ingest at rate·mix[ingest] and
	// offer the listed query rates with the query kinds in mix proportion.
	mix     mix
	rate    float64
	ladder  []float64
	limitMs float64 // query p99 limit that defines slo_qps
	// refresh is the maintenance cadence: the per-view Refresher interval
	// (dashboard, fleet shards) or the Scheduler tick (churn).
	refresh time.Duration
	fleet   bool
	build   func(cfg buildConfig) (*instance, error)
	// maker returns the request generator for a run; it depends only on
	// the seed and the dataset size.
	maker func(cfg buildConfig, in *instance) requestMaker
	audit func(in *instance, cfg buildConfig) ([]auditItem, error)
	// audits is how many independent audit instances a run pools: one
	// instance's sample holds too few changed rows for a median that is
	// steady across seeds.
	audits int
}

// The dashboard's and the fleet's rates give every operation kind at
// least 1000 answers in the 30 s nominal phase of a 36 s run, the minimum
// for a p99 with ten samples beyond it; that is why their ingest is far
// above a light 1% of operations. Churn is ingest-dominated, as a refresh
// stream is: about two ingests per query, so that most queries land on a
// fresh epoch and must clean again. Its query kinds get a few hundred
// answers each, enough for the gated p50s (their p99s are printed as
// n/a), and its total rate is low: at 110 ops/s and above its latencies
// queued behind maintenance and doubled in some runs but not in others.
// Maintenance runs every 250 ms so that its stalls are frequent and
// regular: rarer, longer folds made every p99 depend on a handful of
// events per run.
var workloads = map[string]*workload{
	"dashboard": {
		mix:     mix{opEstimate: 0.50, opGroup: 0.17, opSelect: 0.17, opIngest: 0.16},
		rate:    240,
		ladder:  []float64{500, 600, 700},
		limitMs: 150,
		refresh: 250 * time.Millisecond,
		build:   buildDashboard,
		maker:   func(cfg buildConfig, _ *instance) requestMaker { return newVideoMaker(cfg, false) },
		audit:   auditDashboard,
		audits:  4,
	},
	"churn": {
		mix:     mix{opEstimate: 0.15, opGroup: 0.12, opSelect: 0.08, opIngest: 0.65},
		rate:    80,
		ladder:  []float64{60, 100, 140},
		limitMs: 100,
		refresh: 250 * time.Millisecond,
		build:   buildChurn,
		maker:   func(cfg buildConfig, in *instance) requestMaker { return newChurnMaker(cfg, in.nodes[0].d) },
		audit:   auditChurn,
		audits:  16,
	},
	"fleet": {
		mix:     mix{opEstimate: 0.50, opGroup: 0.17, opSelect: 0.17, opIngest: 0.16},
		rate:    240,
		ladder:  []float64{400, 500, 600},
		limitMs: 150,
		refresh: 250 * time.Millisecond,
		fleet:   true,
		build:   buildFleet,
		maker:   func(cfg buildConfig, _ *instance) requestMaker { return newVideoMaker(cfg, true) },
		audit:   auditFleet,
		audits:  4,
	},
}

func init() {
	for name, w := range workloads {
		w.name = name
	}
}

// buildConfig says how to build one instance of a workload.
type buildConfig struct {
	w      *workload
	seed   int64
	scale  float64
	dir    string // scratch directory for write-ahead logs
	parked bool   // no background maintenance (the audit instance)
	traced bool   // serve through the benchmark's traced handlers
}

func (c buildConfig) scaled(n, min int) int {
	v := int(float64(n) * c.scale)
	if v < min {
		v = min
	}
	return v
}

// ------------------------------------------------------------- videolog

const (
	videoBase   = 4_000
	visitBase   = 30_000
	videoOwners = 50
)

const visitViewSQL = `CREATE VIEW visitView AS
SELECT videoId, ownerId, COUNT(1) AS visitCount, SUM(duration) AS totalDuration
FROM Log JOIN Video ON Log.videoId = Video.videoId
GROUP BY videoId, ownerId`

// videolog generates the video log dataset from the seed; with pl set it
// keeps only shard id's partition, so a fleet's union is the single-node
// dataset.
func videolog(cfg buildConfig, pl *shard.Placement, id int) *svc.Database {
	videos, visits := cfg.scaled(videoBase, 100), cfg.scaled(visitBase, 2_000)
	owns := func(table string, row svc.Row) bool { return pl == nil || pl.Owns(table, row, id) }
	rng := rand.New(rand.NewSource(cfg.seed))
	d := svc.NewDatabase()
	video := d.MustCreate("Video", svc.NewSchema([]svc.Column{
		svc.Col("videoId", svc.KindInt),
		svc.Col("ownerId", svc.KindInt),
		svc.Col("duration", svc.KindFloat),
	}, "videoId"))
	for i := 0; i < videos; i++ {
		row := svc.Row{svc.Int(int64(i)), svc.Int(rng.Int63n(videoOwners)), svc.Float(rng.Float64() * 3)}
		if owns("Video", row) {
			video.MustInsert(row)
		}
	}
	logT := d.MustCreate("Log", svc.NewSchema([]svc.Column{
		svc.Col("sessionId", svc.KindInt),
		svc.Col("videoId", svc.KindInt),
	}, "sessionId"))
	for i := 0; i < visits; i++ {
		row := svc.Row{svc.Int(int64(i)), svc.Int(rng.Int63n(int64(videos)))}
		if owns("Log", row) {
			logT.MustInsert(row)
		}
	}
	return d
}

func buildDashboard(cfg buildConfig) (*instance, error) {
	in := &instance{}
	d := videolog(cfg, nil, 0)
	if err := in.serveNode(cfg, d, []string{visitViewSQL}); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func buildFleet(cfg buildConfig) (*instance, error) {
	const shards = 2
	pl := shard.Videolog(shards)
	in := &instance{fleet: true}
	var addrs []string
	for id := 0; id < shards; id++ {
		node := buildConfig{w: cfg.w, seed: cfg.seed, scale: cfg.scale, dir: cfg.dir, parked: cfg.parked}
		if err := in.serveNode(node, videolog(cfg, &pl, id), []string{visitViewSQL}); err != nil {
			in.close()
			return nil, err
		}
		addrs = append(addrs, in.nodes[id].addr)
	}
	if err := in.route(cfg, addrs, pl); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// videoMaker generates dashboard and fleet requests. Ingest inserts new
// sessions; on one node it also updates and deletes base sessions, each
// at most once (a strided walk over the base keys), so no mutation can
// fail on a key an earlier one removed. Fleet ingest is inserts only:
// Log deletes are not routable by the fleet's placement.
type videoMaker struct {
	videos, visits int
	fleet          bool
	next           int64
	walk           keyWalk
	zipf           *rand.Zipf
}

func newVideoMaker(cfg buildConfig, fleet bool) *videoMaker {
	videos, visits := cfg.scaled(videoBase, 100), cfg.scaled(visitBase, 2_000)
	return &videoMaker{videos: videos, visits: visits, fleet: fleet,
		next: int64(visits) + 1_000_000, walk: newKeyWalk(visits)}
}

var videoCols = []string{"videoId", "ownerId", "duration"}

func (m *videoMaker) query(rng *rand.Rand, kind opKind) (string, []string) {
	v := int64(m.videos)
	switch kind {
	case opGroup:
		if rng.Intn(2) == 0 {
			return `SELECT ownerId, COUNT(1) FROM visitView GROUP BY ownerId`, nil
		}
		return fmt.Sprintf(`SELECT ownerId, SUM(visitCount) FROM visitView WHERE videoId < %d GROUP BY ownerId`,
			v/4+rng.Int63n(v*3/4)), nil
	case opSelect:
		a := rng.Int63n(v - 20)
		return fmt.Sprintf(`SELECT videoId, ownerId, duration FROM Video WHERE videoId >= %d AND videoId < %d`, a, a+20), videoCols
	}
	if m.fleet && rng.Intn(2) == 0 {
		// Pinned to one video: the router prunes it to the owning shard.
		if m.zipf == nil {
			m.zipf = rand.NewZipf(rng, 1.2, 1, uint64(v-1))
		}
		return fmt.Sprintf(`SELECT SUM(visitCount) FROM visitView WHERE videoId = %d`, m.zipf.Uint64()), nil
	}
	// Predicates stay wide enough that the 10% sample always holds
	// matching rows: AVG's correction fails on an empty sample.
	switch rng.Intn(4) {
	case 0:
		a := rng.Int63n(v - v/4)
		return fmt.Sprintf(`SELECT SUM(visitCount) FROM visitView WHERE videoId >= %d AND videoId < %d`, a, a+v/4), nil
	case 1:
		return fmt.Sprintf(`SELECT AVG(totalDuration) FROM visitView WHERE ownerId < %d`, 10+rng.Int63n(videoOwners-10)), nil
	case 2:
		return fmt.Sprintf(`SELECT COUNT(1) FROM visitView WHERE visitCount > %d`,
			int64(m.visits/m.videos)+rng.Int63n(10)), nil
	default:
		return `SELECT SUM(visitCount) FROM visitView`, nil
	}
}

func (m *videoMaker) ingest(rng *rand.Rand) (string, []api.IngestOp) {
	v := int64(m.videos)
	var ops []api.IngestOp
	inserts := 2
	if m.fleet {
		inserts = 4
	}
	for i := 0; i < inserts; i++ {
		ops = append(ops, client.InsertOp(m.next, rng.Int63n(v)))
		m.next++
	}
	if !m.fleet {
		ops = append(ops, client.UpdateOp(m.walk.next(), rng.Int63n(v)))
		ops = append(ops, client.DeleteOp(m.walk.next()))
	}
	return "Log", ops
}

// keyWalk visits 0..n-1 in a fixed scattered order, each key once.
type keyWalk struct{ n, step, i int64 }

func newKeyWalk(n int) keyWalk {
	step := int64(7919) // prime; stepped down until coprime with n
	for gcd(step, int64(n)) != 1 {
		step--
	}
	return keyWalk{n: int64(n), step: step}
}

func (w *keyWalk) next() int64 {
	k := (w.i * w.step) % w.n
	w.i++
	return k
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ---------------------------------------------------------------- TPC-D

const ordersBase = 3_000

// The two aggregate views share churn's lineitem⋈orders delta subplan
// with joinView, so the scheduler's group cycles have work to share.
const (
	orderRevenueSQL = `CREATE VIEW orderRevenue AS
SELECT l_orderkey, COUNT(1) AS cnt, SUM(l_extendedprice) AS revenue
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY l_orderkey`
	custQtySQL = `CREATE VIEW custQty AS
SELECT o_custkey, COUNT(1) AS cnt, SUM(l_quantity) AS totalQty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_custkey`
)

func tpcdConfig(cfg buildConfig) tpcd.Config {
	c := tpcd.DefaultConfig()
	c.Orders = cfg.scaled(ordersBase, 200)
	c.Customers = cfg.scaled(500, 50)
	c.Z = 2
	c.Seed = cfg.seed
	return c
}

func buildChurn(cfg buildConfig) (*instance, error) {
	d, err := tpcd.NewGenerator(tpcdConfig(cfg)).Generate()
	if err != nil {
		return nil, err
	}
	in := &instance{}
	if err := in.serveNode(cfg, d, []string{tpcd.JoinViewSQL, orderRevenueSQL, custQtySQL}); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// churnMaker generates the TPC-D refresh stream: new orders, new
// lineitems for the stream's new orders, and lineitem updates, each base
// lineitem updated at most once.
type churnMaker struct {
	cfg       tpcd.Config
	lines     [][2]int64 // base lineitem keys
	walk      keyWalk
	nextOrder int64
	newOrders []int64
	lineNo    map[int64]int64
}

func newChurnMaker(cfg buildConfig, d *svc.Database) *churnMaker {
	tc := tpcdConfig(cfg)
	m := &churnMaker{cfg: tc, nextOrder: int64(tc.Orders) + 1_000_000, lineNo: map[int64]int64{}}
	// Base rows come out in insertion order, so the walk depends only on
	// the seed. Read before the run stages anything.
	for _, row := range d.Table(tpcd.Lineitem).Rows().Rows() {
		m.lines = append(m.lines, [2]int64{row[0].AsInt(), row[1].AsInt()})
	}
	m.walk = newKeyWalk(len(m.lines))
	return m
}

var orderCols = []string{"o_orderkey", "o_custkey", "o_totalprice"}

func (m *churnMaker) query(rng *rand.Rand, kind opKind) (string, []string) {
	switch kind {
	case opGroup:
		qs := tpcd.JoinViewQuerySQL()
		return qs[rng.Intn(len(qs))], nil
	case opSelect:
		a := rng.Int63n(int64(m.cfg.Orders) - 10)
		return fmt.Sprintf(`SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d`, a, a+10), orderCols
	}
	switch rng.Intn(3) {
	case 0:
		a := rng.Int63n(int64(m.cfg.Days) - 30)
		return fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM joinView WHERE o_orderdate >= %d AND o_orderdate < %d`, a, a+30), nil
	case 1:
		return fmt.Sprintf(`SELECT SUM(revenue) FROM orderRevenue WHERE l_orderkey < %d`,
			1+rng.Int63n(int64(m.cfg.Orders))), nil
	default:
		return fmt.Sprintf(`SELECT SUM(totalQty) FROM custQty WHERE o_custkey < %d`,
			1+rng.Int63n(int64(m.cfg.Customers))), nil
	}
}

func (m *churnMaker) ingest(rng *rand.Rand) (string, []api.IngestOp) {
	if len(m.newOrders) == 0 || rng.Intn(10) < 3 {
		var ops []api.IngestOp
		for i := 0; i < 2; i++ {
			ops = append(ops, client.InsertOp(m.orderRow(rng, m.nextOrder)...))
			m.newOrders = append(m.newOrders, m.nextOrder)
			m.nextOrder++
		}
		return tpcd.Orders, ops
	}
	// One new lineitem and two updates: updates keep the base tables from
	// growing over the run, so late operations cost what early ones did.
	ok := m.newOrders[rng.Intn(len(m.newOrders))]
	ln := m.lineNo[ok]
	m.lineNo[ok] = ln + 1
	ops := []api.IngestOp{client.InsertOp(m.lineRow(rng, ok, ln)...)}
	for i := 0; i < 2; i++ {
		k := m.lines[m.walk.next()]
		ops = append(ops, client.UpdateOp(m.lineRow(rng, k[0], k[1])...))
	}
	return tpcd.Lineitem, ops
}

func (m *churnMaker) orderRow(rng *rand.Rand, key int64) []any {
	return []any{key, rng.Int63n(int64(m.cfg.Customers)), rng.Int63n(3),
		float64(rng.Intn(500000)) / 10, rng.Int63n(int64(m.cfg.Days)), 1 + rng.Int63n(5)}
}

func (m *churnMaker) lineRow(rng *rand.Rand, order, line int64) []any {
	// A Pareto-tailed price keeps the refresh stream as skewed as the
	// base load's Zipf prices.
	price := 100 + 50/(0.02+rng.Float64())
	return []any{order, line, rng.Int63n(int64(m.cfg.Parts)), rng.Int63n(int64(m.cfg.Suppliers)),
		float64(1 + rng.Intn(50)), price, float64(rng.Intn(10)) / 100, rng.Int63n(3),
		rng.Int63n(int64(m.cfg.Days))}
}
