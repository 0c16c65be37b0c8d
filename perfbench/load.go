package main

// The open-loop load generator. A phase is a pre-built schedule of
// operations, each with the time it is due. One generator goroutine
// releases operations at their due times into a queue; at most `workers`
// goroutines (one HTTP connection each) take them off the queue and send
// them. Latency runs from the due time, not the send time, so a stall
// that makes later operations wait is charged to them (no coordinated
// omission). How late the generator itself released each operation is
// recorded as its lag.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	svc "github.com/sampleclean/svc"
	"github.com/sampleclean/svc/server/api"
)

type opKind int

const (
	opEstimate opKind = iota
	opGroup
	opSelect
	opIngest
	nOpKinds
)

var opNames = [nOpKinds]string{"estimate", "groupby", "select", "ingest"}

func (k opKind) String() string { return opNames[k] }

// op is one scheduled request.
type op struct {
	due  time.Duration // offset from the phase start
	kind opKind
	body []byte   // JSON request body
	cols []string // select: the column set the answer must carry
	nops int      // ingest: mutations in the batch
}

func (o op) path() string {
	if o.kind == opIngest {
		return "/ingest"
	}
	return "/query"
}

// requestMaker turns a workload's seeded generator state into request
// bodies. It is stateful (ingest keys advance), so one maker serves every
// phase of a run in order.
type requestMaker interface {
	query(rng *rand.Rand, kind opKind) (sql string, cols []string)
	ingest(rng *rand.Rand) (table string, ops []api.IngestOp)
}

// mix gives each operation kind's share of a schedule.
type mix [nOpKinds]float64

func (m mix) pick(rng *rand.Rand) opKind {
	total := 0.0
	for _, f := range m {
		total += f
	}
	u := rng.Float64() * total
	for k, f := range m {
		if u < f {
			return opKind(k)
		}
		u -= f
	}
	return opEstimate
}

// schedule builds a constant-rate schedule of rate ops/s for dur, with
// kinds drawn from m.
func schedule(mk requestMaker, rng *rand.Rand, m mix, rate float64, dur time.Duration) ([]op, error) {
	n := int(rate * dur.Seconds())
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o := op{due: time.Duration(float64(i) / rate * float64(time.Second)), kind: m.pick(rng)}
		var err error
		if o.kind == opIngest {
			table, muts := mk.ingest(rng)
			o.nops = len(muts)
			o.body, err = json.Marshal(api.IngestRequest{Table: table, Ops: muts})
		} else {
			var sql string
			sql, o.cols = mk.query(rng, o.kind)
			o.body, err = json.Marshal(api.QueryRequest{SQL: sql})
		}
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// digest folds schedules into a hash that identifies the inputs a run
// sent: two runs with equal digests sent identical requests at identical
// offsets.
type digest struct{ h []byte }

func (d *digest) add(ops []op) {
	hs := sha256.New()
	hs.Write(d.h)
	var buf [9]byte
	for _, o := range ops {
		binary.LittleEndian.PutUint64(buf[:8], uint64(o.due))
		buf[8] = byte(o.kind)
		hs.Write(buf[:])
		hs.Write(o.body)
	}
	d.h = hs.Sum(nil)
}

func (d *digest) String() string { return hex.EncodeToString(d.h)[:16] }

// phaseResult is what one phase measured.
type phaseResult struct {
	lat       [nOpKinds][]float64 // ms from due time, successful ops only
	attempted int
	failed    int // every non-200 answer or transport error
	rejected  int // 503 among failed
	timedOut  int // 504 among failed
	skipped   int // never sent: the phase was cut off while they queued
	genLag    []float64
	lastDone  time.Duration // completion of the last sent op, from phase start
	length    time.Duration // due time of the last op
	violation error         // first correctness violation, if any
	failure   string        // the first failed op's answer, for diagnosis
}

func (r *phaseResult) queryLat() []float64 {
	var out []float64
	for k := opEstimate; k < opIngest; k++ {
		out = append(out, r.lat[k]...)
	}
	return out
}

// target is where a phase sends its requests.
type target struct {
	base   string // http://host:port
	fleet  bool   // answers carry per-shard stamps (router)
	client *http.Client
}

func newTarget(addr string, fleet bool, workers int) *target {
	tr := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	return &target{base: "http://" + addr, fleet: fleet,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// runPhase sends ops on schedule through workers connections. Ops still
// queued when cutoff elapses are skipped (ladder rungs past saturation
// would otherwise drain for a long time); nominal phases pass a cutoff
// far beyond their length.
func runPhase(t *target, ops []op, workers int, cutoff time.Duration, folds *foldTracker) *phaseResult {
	res := &phaseResult{genLag: make([]float64, 0, len(ops))}
	if len(ops) > 0 {
		res.length = ops[len(ops)-1].due
	}
	// Sized to the number of sends: the generator never blocks, so a
	// slow server shows as queueing delay, not as generator lag.
	queue := make(chan int, len(ops))
	t0 := time.Now()
	go func() {
		defer close(queue)
		for i, o := range ops {
			if d := o.due - time.Since(t0); d > 0 {
				time.Sleep(d)
			}
			res.genLag = append(res.genLag, ms(time.Since(t0)-o.due))
			queue <- i
		}
	}()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newConnState()
			for i := range queue {
				o := ops[i]
				if time.Since(t0) > cutoff {
					mu.Lock()
					res.skipped++
					mu.Unlock()
					continue
				}
				status, body, err := t.do(o)
				done := time.Since(t0)
				var acks map[int]uint64
				var verr error
				if err == nil && status == http.StatusOK {
					acks, verr = st.check(o, body, t.fleet)
				}
				if acks != nil && folds != nil {
					folds.add(t0.Add(done), acks)
				}
				mu.Lock()
				res.attempted++
				switch {
				case err != nil || status != http.StatusOK:
					res.failed++
					if res.failure == "" {
						res.failure = fmt.Sprintf("%s: status %d err %v: %.200s", o.kind, status, err, body)
					}
					if status == http.StatusServiceUnavailable {
						res.rejected++
					}
					if status == http.StatusGatewayTimeout {
						res.timedOut++
					}
				case verr != nil:
					res.failed++
					if res.violation == nil {
						res.violation = fmt.Errorf("%s op %d: %w", o.kind, i, verr)
					}
				default:
					res.lat[o.kind] = append(res.lat[o.kind], ms(done-o.due))
				}
				if done > res.lastDone {
					res.lastDone = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

func (t *target) do(o op) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, t.base+o.path(), bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// foldTracker measures fold lag: from an ingest acknowledgement until the
// durable log's retired cut (the last maintenance boundary folded into
// the base tables) reaches the acknowledged sequence on every shard the
// batch touched.
type foldTracker struct {
	logs []*svc.DurableLog // per shard

	mu      sync.Mutex
	pending []foldWait
	lags    []float64 // ms
}

type foldWait struct {
	ack  time.Time
	seqs map[int]uint64
}

func (f *foldTracker) add(ack time.Time, seqs map[int]uint64) {
	f.mu.Lock()
	f.pending = append(f.pending, foldWait{ack: ack, seqs: seqs})
	f.mu.Unlock()
}

// poll retires every pending acknowledgement the logs' cuts now cover.
func (f *foldTracker) poll() {
	cuts := make([]uint64, len(f.logs))
	for i, lg := range f.logs {
		cuts[i] = lg.Stats().RetiredCut
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	keep := f.pending[:0]
	for _, w := range f.pending {
		folded := true
		for s, seq := range w.seqs {
			if cuts[s] < seq {
				folded = false
				break
			}
		}
		if folded {
			f.lags = append(f.lags, ms(now.Sub(w.ack)))
		} else {
			keep = append(keep, w)
		}
	}
	f.pending = keep
}

func (f *foldTracker) outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// run polls every millisecond until stop is closed, then waits up to
// drain for outstanding acknowledgements to fold.
func (f *foldTracker) run(stop <-chan struct{}, drain time.Duration) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var deadline <-chan time.Time
	for {
		select {
		case <-tick.C:
			f.poll()
			if deadline != nil && f.outstanding() == 0 {
				return
			}
		case <-stop:
			stop = nil
			deadline = time.After(drain)
		case <-deadline:
			return
		}
	}
}
