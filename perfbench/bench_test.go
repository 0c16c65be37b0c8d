package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func runSmall(t *testing.T, workload string, seed int64, trace int) string {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "2",
		"--trace", fmt.Sprint(trace), "--scale", "0.05", "--workdir", t.TempDir(), "--record", ""}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s trace %d: exit %d\n%s\n%s", workload, trace, code, out.String(), errOut.String())
	}
	return out.String()
}

// TestSmokeEmitsEveryMetric runs every workload at a tiny scale, untraced
// and traced, and checks that each metric BENCHMARK.json names is printed
// with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for trace, metrics := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			out := runSmall(t, w.Name, 1, trace)
			for _, m := range metrics {
				re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `\b`)
				if !re.MatchString(out) {
					t.Errorf("%s trace %d: metric %s [%s] not printed", w.Name, trace, m.Name, m.Unit)
				}
			}
			lines := bytes.Split(bytes.TrimSpace([]byte(out)), []byte("\n"))
			var final struct {
				Correct   bool
				Attempted int
			}
			if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil || !final.Correct || final.Attempted == 0 {
				t.Errorf("%s trace %d: last line %q is not a correct result (%v)", w.Name, trace, lines[len(lines)-1], err)
			}
		}
	}
}

func scheduleDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	w := workloads[name]
	cfg := buildConfig{w: w, seed: seed, scale: 0.05, dir: t.TempDir(), parked: true}
	in, err := w.build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	ops, err := schedule(w.maker(cfg, in), rand.New(rand.NewSource(seed+1)), w.mix, w.rate, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var d digest
	d.add(ops)
	return d.String()
}

func TestScheduleDigestFollowsSeed(t *testing.T) {
	for name := range workloads {
		a, b, c := scheduleDigest(t, name, 1), scheduleDigest(t, name, 1), scheduleDigest(t, name, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a)
		}
	}
}

func TestAuditRepeatsExactly(t *testing.T) {
	for name, w := range workloads {
		var got [2][2]float64
		for i := range got {
			cfg := buildConfig{w: w, seed: 3, scale: 0.05, dir: t.TempDir(), parked: true}
			in, err := w.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			items, err := w.audit(in, cfg)
			if cerr := in.close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[i][0], got[i][1] = auditMetrics(items)
		}
		if got[0] != got[1] {
			t.Errorf("%s: audit (rel_err, ci_width) %v then %v", name, got[0], got[1])
		}
	}
}

func TestSloQPSInterpolates(t *testing.T) {
	for _, c := range []struct {
		tried []rung
		want  float64
	}{
		{[]rung{{100, 10, true, false}, {200, 50, true, false}, {300, 150, false, false}}, 250},
		{[]rung{{100, 10, true, false}, {200, 50, true, false}}, 200},
		{[]rung{{100, 200, false, false}, {200, 300, false, false}}, 50},
		// A disturbed low rung does not hide a higher one that passes.
		{[]rung{{100, 120, false, false}, {200, 50, true, false}, {300, 150, false, false}}, 250},
		// A failure that is not a latency overrun (errors, backlog) stops at the rung.
		{[]rung{{100, 10, true, false}, {200, 50, false, true}}, 100},
		// A first rung that sheds load or falls behind while its answers
		// stay fast has no capacity to report, nor one without answers.
		{[]rung{{100, 10, false, true}, {200, 300, false, false}}, 0},
		{[]rung{{100, 200, false, true}, {200, 300, false, true}}, 0},
		{[]rung{{100, math.NaN(), false, true}}, 0},
	} {
		if got := sloQPS(c.tried, 100); got != c.want {
			t.Errorf("sloQPS(%v) = %v, want %v", c.tried, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	st := &spanTree{spans: []spanRec{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0}, // overlaps a
		{name: "c", start: 25, end: 35, parent: 1},
	}}
	self := st.selfTimes()
	if want := []time.Duration{50, 20, 30, 10}; fmt.Sprint(self) != fmt.Sprint(want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestRunValidity(t *testing.T) {
	rep := &report{out: io.Discard, metrics: map[string]metric{}, info: map[string]any{}}
	var o outcome
	o.checkLag("nominal", []float64{1, 2, 3})
	o.checkSteal(rep, cpuTimes{total: 1000, steal: 10, ok: true}, cpuTimes{total: 2000, steal: 50, ok: true})
	o.checkSteal(rep, cpuTimes{}, cpuTimes{total: 2000, ok: true}) // unmeasurable: no verdict
	if !o.valid() {
		t.Fatalf("lag 3 ms and 4%% steal marked invalid: %v", o.invalid)
	}
	o.checkLag("ladder 550 q/s", []float64{1, 2, 80})
	o.checkSteal(rep, cpuTimes{total: 1000, steal: 10, ok: true}, cpuTimes{total: 2000, steal: 110, ok: true})
	if len(o.invalid) != 2 {
		t.Fatalf("a late rung and 10%% steal gave %v, want two reasons", o.invalid)
	}
	if c := readCPUTimes(); c.ok && c.steal > c.total {
		t.Fatalf("/proc/stat read as %+v", c)
	}
}
