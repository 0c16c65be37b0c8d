package main

// Run validity. A run is invalid when its offered load was not the
// scheduled one (the generator released operations late) or when the
// hypervisor stole a large share of the host's CPU during the timed
// phases: its latencies then measure the host, not the program. An
// invalid run is measured again on fresh instances; a run that stays
// invalid exits non-zero without a summary line, so it is never compared
// like a valid one.

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// genLagLimit marks a run invalid: in some phase the generator released
// operations this late (p99), so the offered load was not the scheduled
// one.
const genLagLimit = 50 // ms

// stealLimit marks a run invalid: the hypervisor stole more than this
// share of the CPU time during the timed phases.
const stealLimit = 0.08

// maxAttempts is how many times a run measures before it gives up on an
// invalid host; two attempts stay within a run's time budget.
const maxAttempts = 2

// checkLag marks the run invalid when a phase's generator lag p99 is over
// genLagLimit.
func (o *outcome) checkLag(phase string, lag []float64) {
	if p99 := quantile(lag, 0.99); p99 > genLagLimit {
		o.invalid = append(o.invalid, fmt.Sprintf("%s: generator lag p99 %.1f ms > %d ms", phase, p99, genLagLimit))
	}
}

// cpuTimes is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
	ok           bool // false where /proc/stat is missing or unreadable
}

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	for i, s := range fields[1:min(len(fields), 9)] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	c.ok = true
	return c
}

// checkSteal reports the share of CPU time stolen between two readings,
// records it, and marks the run invalid above stealLimit.
func (o *outcome) checkSteal(rep *report, from, to cpuTimes) {
	if !from.ok || !to.ok || to.total <= from.total {
		rep.note("hypervisor steal: not measurable on this host")
		return
	}
	frac := float64(to.steal-from.steal) / float64(to.total-from.total)
	rep.info["steal_frac"] = frac
	rep.note("hypervisor steal during the timed phases: %.2f%% of CPU time (limit %.0f%%)", 100*frac, 100*stealLimit)
	if frac > stealLimit {
		o.invalid = append(o.invalid, fmt.Sprintf("hypervisor stole %.1f%% of CPU time > %.0f%%", 100*frac, 100*stealLimit))
	}
}
