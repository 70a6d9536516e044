package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The shared 2-vCPU VM the baseline was recorded on drifts in speed by up
// to ±20% over minutes, whatever the averaging window, and process CPU
// time drifts with it. A fixed reference kernel — string-keyed maps, small
// allocations, sorting and JSON, none of it code of this repository —
// slows down and speeds up with it. Every run samples the kernel's rate
// while it measures, and reports its end-to-end timings scaled to
// refBaseline, the kernel's rate on the baseline machine. Raw timings are
// kept alongside in the results.
const (
	// refBaseline is the reference rate (kernel calls per second) of the
	// baseline machine.
	refBaseline = 800.0
	// refSample is the length of one reference sample; refEvery the loop
	// time between samples.
	refSample = 200 * time.Millisecond
	refEvery  = time.Second
)

// refItem is the record the reference kernel builds, encodes and decodes.
type refItem struct {
	Name  string            `json:"name"`
	Vals  []float64         `json:"vals"`
	Attrs map[string]string `json:"attrs"`
}

var refSink int

// refKernel is one call of the reference kernel. Its work is fixed.
func refKernel() int {
	const n = 1000
	m := make(map[string]*refItem, n)
	for i := 0; i < n; i++ {
		k := "node-" + strconv.Itoa(i*7919%1009)
		m[k] = &refItem{Name: k, Vals: []float64{float64(i), float64(i) / 3}, Attrs: map[string]string{"k": k}}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0
	for _, k := range keys[:n/10] {
		raw, _ := json.Marshal(m[k])
		var it refItem
		_ = json.Unmarshal(raw, &it)
		sum += len(it.Name) + len(raw)
	}
	return sum
}

// calibrator accumulates reference samples.
type calibrator struct {
	calls, seconds float64
	last           time.Time
}

// sample runs the reference kernel for about refSample on one goroutine,
// leaving the other CPU to the collector, and books the calls completed
// over the time they took. The heap it leaves behind is collected before
// the workload resumes.
func (c *calibrator) sample() {
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < refSample {
		refSink += refKernel()
		calls++
	}
	c.calls += float64(calls)
	c.seconds += time.Since(t0).Seconds()
	c.last = time.Now()
	runtime.GC()
}

// due reports whether refEvery has passed since the last sample.
func (c *calibrator) due() bool { return time.Since(c.last) >= refEvery }

// rate is the reference rate measured so far.
func (c *calibrator) rate() float64 {
	if c.seconds == 0 {
		return 0
	}
	return c.calls / c.seconds
}

// speed is how much faster than the baseline machine the samples ran:
// a raw time times speed is the time at baseline speed.
func (c *calibrator) speed() float64 {
	if r := c.rate(); r > 0 {
		return r / refBaseline
	}
	return 1
}
