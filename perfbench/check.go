package main

// Response validation. Every answer the benchmark receives is checked; a
// violation fails the run. Epochs and durable sequences are checked per
// worker: each worker sends one request at a time, so what it observes
// must never go backwards.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"github.com/sampleclean/svc/server/api"
)

type connState struct {
	epoch map[int]uint64 // last as_of_epoch per shard (shard 0 on one node)
	seq   map[int]uint64 // last durable_seq per shard
}

func newConnState() *connState {
	return &connState{epoch: map[int]uint64{}, seq: map[int]uint64{}}
}

// check validates one successful answer. For ingest it returns the
// acknowledged durable sequence per shard.
func (st *connState) check(o op, body []byte, fleet bool) (map[int]uint64, error) {
	if o.kind == opIngest {
		var r api.IngestResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("decode ingest ack: %w", err)
		}
		if r.Staged != o.nops {
			return nil, fmt.Errorf("staged %d of %d ops", r.Staged, o.nops)
		}
		if !r.Durable {
			return nil, fmt.Errorf("ingest acknowledged without durability")
		}
		acks := map[int]uint64{}
		if fleet {
			for _, s := range r.Shards {
				if !s.Durable {
					return nil, fmt.Errorf("shard %d acknowledged without durability", s.Shard)
				}
				acks[s.Shard] = s.DurableSeq
			}
		} else {
			acks[0] = r.DurableSeq
		}
		for s, seq := range acks {
			if seq == 0 || seq < st.seq[s] {
				return nil, fmt.Errorf("shard %d durable_seq %d after %d", s, seq, st.seq[s])
			}
			st.seq[s] = seq
		}
		return acks, nil
	}
	var r api.QueryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	switch o.kind {
	case opEstimate:
		if r.Kind != "estimate" || r.Estimate == nil {
			return nil, fmt.Errorf("want an estimate, got kind %q", r.Kind)
		}
		if err := checkInterval(*r.Estimate); err != nil {
			return nil, err
		}
	case opGroup:
		if r.Kind != "groups" || len(r.Groups) == 0 {
			return nil, fmt.Errorf("want groups, got kind %q with %d groups", r.Kind, len(r.Groups))
		}
		for _, g := range r.Groups {
			if err := checkInterval(g.Estimate); err != nil {
				return nil, fmt.Errorf("group %s: %w", g.Key, err)
			}
		}
	case opSelect:
		if r.Kind != "rows" || !slices.Equal(r.Columns, o.cols) {
			return nil, fmt.Errorf("want rows with columns %v, got kind %q columns %v", o.cols, r.Kind, r.Columns)
		}
	}
	if r.AsOfEpoch == 0 {
		return nil, fmt.Errorf("answer has no as_of_epoch")
	}
	stamps := map[int]uint64{0: r.AsOfEpoch}
	if fleet {
		if len(r.Shards) == 0 {
			return nil, fmt.Errorf("routed answer has no shard stamps")
		}
		stamps = map[int]uint64{}
		for _, s := range r.Shards {
			stamps[s.Shard] = s.AsOfEpoch
		}
	}
	for s, e := range stamps {
		if e == 0 || e < st.epoch[s] {
			return nil, fmt.Errorf("shard %d as_of_epoch %d after %d", s, e, st.epoch[s])
		}
		st.epoch[s] = e
	}
	return nil, nil
}

func checkInterval(e api.Estimate) error {
	tol := 1e-9 * math.Max(1, math.Abs(e.Value))
	if math.IsNaN(e.Value) || !(e.Lo <= e.Value+tol && e.Value <= e.Hi+tol) {
		return fmt.Errorf("estimate %v outside its interval [%v, %v]", e.Value, e.Lo, e.Hi)
	}
	return nil
}
