package sched

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// FuzzFeasibleSimulateAgreement cross-checks the exact processor-demand
// criterion against preemptive EDF simulation on fuzzer-generated job
// sets: EDF is optimal for independent jobs with release times and
// deadlines on one processor, so the two must always agree.
func FuzzFeasibleSimulateAgreement(f *testing.F) {
	f.Add(int64(0), int64(5), int64(3), int64(3), int64(6), int64(4))
	f.Add(int64(0), int64(20), int64(5), int64(8), int64(16), int64(5))
	f.Fuzz(func(t *testing.T, e1, d1, c1, e2, d2, c2 int64) {
		mk := func(name string, e, d, c int64) (Job, bool) {
			est := float64(abs64(e) % 50)
			window := float64(abs64(d)%30) + 1
			ct := float64(abs64(c) % 32)
			if ct > window {
				return Job{}, false
			}
			return Job{Name: name, EST: est, TCD: est + window, CT: ct}, true
		}
		j1, ok1 := mk("a", e1, d1, c1)
		j2, ok2 := mk("b", e2, d2, c2)
		if !ok1 || !ok2 {
			return
		}
		jobs := []Job{j1, j2}
		feasible, err := Check(jobs)
		if err != nil {
			t.Fatalf("valid jobs rejected: %v", err)
		}
		sim, err := Simulate(jobs, PreemptiveEDF)
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if feasible != sim.AllMet() {
			t.Fatalf("criterion %v vs EDF %v for %v and %v (misses %v)",
				feasible, sim.AllMet(), j1, j2, sim.Misses())
		}
	})
}

func abs64(x int64) int64 {
	if x == math.MinInt64 {
		return math.MaxInt64
	}
	if x < 0 {
		return -x
	}
	return x
}

// referenceScan is the processor-demand scan as it ran before Check and
// Witness existed: every (release, deadline) window, no early exit, and
// the witness of the first window with the least slack, formatted as it
// goes. FuzzCheckMatchesScan pins Check and Witness to it.
func referenceScan(jobs []Job) (bool, string, error) {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return false, "", err
		}
	}
	if len(jobs) <= 1 {
		return true, "", nil
	}
	starts := make([]float64, 0, len(jobs))
	ends := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		starts = append(starts, j.EST)
		ends = append(ends, j.TCD)
	}
	sort.Float64s(starts)
	sort.Float64s(ends)
	worstSlack := math.Inf(1)
	witness := ""
	for _, s := range starts {
		for _, d := range ends {
			if d <= s {
				continue
			}
			demand := 0.0
			var inside []string
			for _, j := range jobs {
				if j.EST >= s && j.TCD <= d {
					demand += j.CT
					inside = append(inside, j.Name)
				}
			}
			slack := (d - s) - demand
			if slack < worstSlack {
				worstSlack = slack
				witness = fmt.Sprintf("window [%g,%g): demand %g of %g {%s}",
					s, d, demand, d-s, strings.Join(inside, ","))
			}
		}
	}
	return worstSlack >= 0, witness, nil
}

// decodeJobs turns fuzz bytes into 1–12 jobs whose EST, TCD and CT are
// 3-decimal values (k/1000 for integer k): the first byte picks the job
// count, then each job takes three little-endian uint16s — EST, window
// and CT in thousandths. TCD is rounded from the integer EST + window, so
// fl(TCD − EST) can differ from the window in the last bit, and a CT equal
// to the window can then fail validation; both oracles must agree on that
// too.
func decodeJobs(data []byte) []Job {
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0])%12
	data = data[1:]
	u16 := func() int {
		if len(data) < 2 {
			data = nil
			return 0
		}
		v := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		return v
	}
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		est, win, ct := u16()%20000, u16()%8000, u16()
		ct %= win + 1
		jobs = append(jobs, Job{
			Name: fmt.Sprintf("j%d", i),
			EST:  float64(est) / 1000,
			TCD:  float64(est+win) / 1000,
			CT:   float64(ct) / 1000,
		})
	}
	return jobs
}

// encodeJobs is decodeJobs' inverse for seed corpora: each triple is EST,
// window and CT in thousandths.
func encodeJobs(triples ...[3]uint16) []byte {
	out := []byte{byte(len(triples) - 1)}
	for _, t := range triples {
		for _, v := range t {
			out = binary.LittleEndian.AppendUint16(out, v)
		}
	}
	return out
}

// FuzzCheckMatchesScan checks Check's verdict, CheckValid's on a valid
// set and Witness on an infeasible set against the full window scan on
// 1–12 jobs with 3-decimal timing. The seeds include sets whose total CT
// equals the shortest window exactly (the O(k) proof's boundary) and
// 0.1+0.2-style sums that round above a window they fill in exact
// arithmetic.
func FuzzCheckMatchesScan(f *testing.F) {
	f.Add(encodeJobs([3]uint16{0, 4000, 1000}, [3]uint16{0, 4000, 3000}))
	f.Add(encodeJobs([3]uint16{1000, 4000, 2000}, [3]uint16{0, 6000, 2000}))
	f.Add(encodeJobs([3]uint16{0, 300, 100}, [3]uint16{0, 300, 200}))
	f.Add(encodeJobs([3]uint16{100, 300, 100}, [3]uint16{100, 300, 200}))
	f.Add(encodeJobs([3]uint16{100, 300, 100}, [3]uint16{100, 300, 200}, [3]uint16{0, 500, 0}))
	f.Add(encodeJobs([3]uint16{700, 300, 100}, [3]uint16{700, 300, 200}, [3]uint16{0, 1000, 1}))
	f.Add(encodeJobs([3]uint16{0, 5000, 3000}, [3]uint16{3000, 3000, 3000}))
	f.Add(encodeJobs([3]uint16{0, 0, 0}, [3]uint16{0, 0, 0}, [3]uint16{0, 1, 1}))
	rng := rand.New(rand.NewPCG(1998, 6))
	for i := 0; i < 200; i++ {
		b := make([]byte, 1+6*12)
		for k := range b {
			b[k] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs := decodeJobs(data)
		want, wantWitness, wantErr := referenceScan(jobs)
		got, err := Check(jobs)
		if (err != nil) != (wantErr != nil) || got != want {
			t.Fatalf("Check = %v, %v; scan = %v, %v for %v", got, err, want, wantErr, jobs)
		}
		if err == nil && CheckValid(jobs) != got {
			t.Fatalf("CheckValid = %v, Check = %v for %v", !got, got, jobs)
		}
		if !got && err == nil {
			if w := Witness(jobs); w != wantWitness {
				t.Fatalf("Witness %q, scan's %q for %v", w, wantWitness, jobs)
			}
		}
	})
}
