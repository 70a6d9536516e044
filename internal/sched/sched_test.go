package sched

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
)

func TestJobValidate(t *testing.T) {
	tests := []struct {
		name    string
		job     Job
		wantErr bool
	}{
		{"ok", Job{Name: "a", EST: 0, TCD: 10, CT: 5}, false},
		{"zero ct", Job{Name: "a", EST: 0, TCD: 10, CT: 0}, false},
		{"negative ct", Job{Name: "a", EST: 0, TCD: 10, CT: -1}, true},
		{"deadline before release", Job{Name: "a", EST: 5, TCD: 3, CT: 1}, true},
		{"ct exceeds window", Job{Name: "a", EST: 0, TCD: 3, CT: 4}, true},
		{"nan est", Job{Name: "a", EST: math.NaN(), TCD: 10, CT: 5}, true},
		{"nan tcd", Job{Name: "a", EST: 0, TCD: math.NaN(), CT: 5}, true},
		{"nan ct", Job{Name: "a", EST: 0, TCD: 10, CT: math.NaN()}, true},
		{"inf tcd", Job{Name: "a", EST: 0, TCD: math.Inf(1), CT: 5}, true},
		{"inf actual is fine", Job{Name: "a", EST: 0, TCD: 10, CT: 5, Actual: math.Inf(1)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.job.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadJob) {
				t.Errorf("error not wrapping ErrBadJob: %v", err)
			}
		})
	}
}

func TestJobString(t *testing.T) {
	j := Job{Name: "p1", EST: 0, TCD: 20, CT: 5}
	if got := j.String(); got != "p1<0,20,5>" {
		t.Errorf("String = %q", got)
	}
}

func TestPaperInfeasibilityExample(t *testing.T) {
	// §6: "two nodes with timing constraints ⟨0,5,3⟩ and ⟨3,6,4⟩ …
	// cannot be scheduled on the same processor".
	jobs := []Job{
		{Name: "a", EST: 0, TCD: 5, CT: 3},
		{Name: "b", EST: 3, TCD: 6, CT: 4},
	}
	// Job b alone is already infeasible (CT 4 > window 3) — exactly why the
	// paper's pair can never be combined.
	ok, err := Check(jobs)
	if err == nil && ok {
		t.Error("paper's infeasible pair reported feasible")
	}
}

func TestFeasiblePairsFromTable1(t *testing.T) {
	// Reconstructed Table 1 jobs.
	p := map[string]Job{
		"p1": {Name: "p1", EST: 0, TCD: 20, CT: 5},
		"p2": {Name: "p2", EST: 8, TCD: 16, CT: 5},
		"p3": {Name: "p3", EST: 0, TCD: 15, CT: 4},
		"p4": {Name: "p4", EST: 5, TCD: 15, CT: 4},
		"p5": {Name: "p5", EST: 0, TCD: 10, CT: 3},
		"p6": {Name: "p6", EST: 10, TCD: 18, CT: 4},
		"p7": {Name: "p7", EST: 10, TCD: 16, CT: 3},
		"p8": {Name: "p8", EST: 12, TCD: 20, CT: 3},
	}
	feasibleSets := [][]string{
		{"p1", "p2"},
		{"p3", "p4"},
		{"p3", "p4", "p5"},
		{"p6", "p7", "p8"},
		{"p4", "p7"},
		{"p2", "p4"},
		{"p2", "p7"},
		// Fig. 7 pairs.
		{"p1", "p8"}, {"p1", "p7"}, {"p1", "p5"},
		{"p2", "p6"}, {"p2", "p3"},
		// Fig. 8 groups.
		{"p1", "p2", "p3"},
		{"p1", "p4", "p5"},
	}
	for _, set := range feasibleSets {
		jobs := make([]Job, 0, len(set))
		for _, name := range set {
			jobs = append(jobs, p[name])
		}
		ok, err := Check(jobs)
		if err != nil {
			t.Fatalf("%v: %v", set, err)
		}
		if !ok {
			t.Errorf("set %v should be feasible; witness %s", set, Witness(jobs))
		}
	}

	// The narrative constraint: "if p4 and p7 are scheduled on the same
	// processor, then p2 cannot be scheduled on that processor".
	jobs := []Job{p["p2"], p["p4"], p["p7"]}
	ok, err := Check(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("{p2,p4,p7} should be infeasible")
	}
	if witness := Witness(jobs); !strings.Contains(witness, "[5,16)") {
		t.Errorf("witness should identify window [5,16): %s", witness)
	}
}

func TestFeasibleTrivialCases(t *testing.T) {
	ok, err := Check(nil)
	if err != nil || !ok {
		t.Errorf("empty set: ok=%v err=%v", ok, err)
	}
	ok, err = Check([]Job{{Name: "a", EST: 0, TCD: 5, CT: 5}})
	if err != nil || !ok {
		t.Errorf("single exact-fit job: ok=%v err=%v", ok, err)
	}
}

func TestFeasibleRejectsInvalidJob(t *testing.T) {
	ok, err := Check([]Job{{Name: "bad", EST: 0, TCD: 5, CT: 9}})
	if !errors.Is(err, ErrBadJob) {
		t.Errorf("err = %v, want ErrBadJob", err)
	}
	if ok {
		t.Error("Check accepted an invalid job")
	}
}

func TestFeasibleSubsetMonotone(t *testing.T) {
	// Property: removing a job never makes a feasible set infeasible.
	gen := func(seed uint32, n int) []Job {
		s := seed + 1
		next := func(mod uint32) float64 {
			s = s*1664525 + 1013904223
			return float64(s % mod)
		}
		jobs := make([]Job, 0, n)
		for i := 0; i < n; i++ {
			est := next(20)
			window := 2 + next(15)
			ct := 1 + next(uint32(window))
			jobs = append(jobs, Job{
				Name: string(rune('a' + i)),
				EST:  est, TCD: est + window, CT: math.Min(ct, window),
			})
		}
		return jobs
	}
	f := func(seed uint32) bool {
		jobs := gen(seed, 5)
		if ok, err := Check(jobs); err != nil || !ok {
			return true // antecedent false
		}
		for drop := range jobs {
			sub := make([]Job, 0, len(jobs)-1)
			sub = append(sub, jobs[:drop]...)
			sub = append(sub, jobs[drop+1:]...)
			if ok, err := Check(sub); err != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFeasibleAgreesWithSimulation(t *testing.T) {
	// Property: if the demand criterion says feasible, preemptive EDF
	// simulation meets every deadline (EDF is optimal for this job model),
	// and vice versa.
	gen := func(seed uint32) []Job {
		s := seed + 7
		next := func(mod uint32) float64 {
			s = s*1664525 + 1013904223
			return float64(s % mod)
		}
		n := 2 + int(next(4))
		jobs := make([]Job, 0, n)
		for i := 0; i < n; i++ {
			est := next(12)
			window := 2 + next(10)
			ct := 1 + next(uint32(window))
			jobs = append(jobs, Job{
				Name: string(rune('a' + i)),
				EST:  est, TCD: est + window, CT: math.Min(ct, window),
			})
		}
		return jobs
	}
	f := func(seed uint32) bool {
		jobs := gen(seed)
		ok, err := Check(jobs)
		if err != nil {
			return false
		}
		sched, err := Simulate(jobs, PreemptiveEDF)
		if err != nil {
			return false
		}
		return ok == sched.AllMet()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSimulatePreemptive(t *testing.T) {
	jobs := []Job{
		{Name: "long", EST: 0, TCD: 20, CT: 8},
		{Name: "urgent", EST: 2, TCD: 6, CT: 3},
	}
	s, err := Simulate(jobs, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllMet() {
		t.Errorf("misses: %v", s.Misses())
	}
	// urgent must preempt long: it finishes at 5, long at 11.
	var urgent, long Outcome
	for _, o := range s.Outcomes {
		switch o.Job.Name {
		case "urgent":
			urgent = o
		case "long":
			long = o
		}
	}
	if urgent.Finish != 5 {
		t.Errorf("urgent finish = %g, want 5", urgent.Finish)
	}
	if long.Finish != 11 {
		t.Errorf("long finish = %g, want 11", long.Finish)
	}
}

func TestSimulateNonPreemptiveBlocksUrgent(t *testing.T) {
	jobs := []Job{
		{Name: "long", EST: 0, TCD: 20, CT: 8},
		{Name: "urgent", EST: 2, TCD: 6, CT: 3},
	}
	s, err := Simulate(jobs, NonPreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	misses := s.Misses()
	if len(misses) != 1 || misses[0] != "urgent" {
		t.Errorf("misses = %v, want [urgent]", misses)
	}
}

func TestSimulateInfiniteLoopFault(t *testing.T) {
	// §3.4.3: a task in an infinite loop under non-preemptive scheduling
	// causes all other tasks to fail; preemptive scheduling (with budget
	// enforcement) contains it.
	jobs := []Job{
		{Name: "stuck", EST: 0, TCD: 10, CT: 3, Actual: math.Inf(1)},
		{Name: "v1", EST: 1, TCD: 8, CT: 2},
		{Name: "v2", EST: 2, TCD: 12, CT: 3},
	}
	np, err := Simulate(jobs, NonPreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(np.Misses()); got != 3 {
		t.Errorf("non-preemptive misses = %v, want all 3", np.Misses())
	}
	p, err := Simulate(jobs, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	missed := map[string]bool{}
	for _, m := range p.Misses() {
		missed[m] = true
	}
	if missed["v1"] || missed["v2"] {
		t.Errorf("preemptive victims missed: %v", p.Misses())
	}
	if !missed["stuck"] {
		t.Error("the faulty task itself should miss its deadline")
	}
}

func TestSimulateRejectsInvalid(t *testing.T) {
	_, err := Simulate([]Job{{Name: "x", EST: 5, TCD: 1, CT: 1}}, PreemptiveEDF)
	if !errors.Is(err, ErrBadJob) {
		t.Errorf("err = %v, want ErrBadJob", err)
	}
}

func TestSimulateEmpty(t *testing.T) {
	s, err := Simulate(nil, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllMet() || s.Makespan != 0 {
		t.Errorf("empty schedule: %+v", s)
	}
}

func TestSimulateIdleGap(t *testing.T) {
	jobs := []Job{
		{Name: "a", EST: 0, TCD: 3, CT: 1},
		{Name: "b", EST: 10, TCD: 14, CT: 2},
	}
	s, err := Simulate(jobs, NonPreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllMet() {
		t.Errorf("misses: %v", s.Misses())
	}
	if s.Makespan != 12 {
		t.Errorf("makespan = %g, want 12", s.Makespan)
	}
}

func TestPolicyString(t *testing.T) {
	if PreemptiveEDF.String() != "preemptive-EDF" ||
		NonPreemptiveEDF.String() != "non-preemptive-EDF" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy string wrong")
	}
}

func TestSimulateDeterministicTieBreak(t *testing.T) {
	// Equal deadlines: name order breaks the tie, so repeated runs agree.
	jobs := []Job{
		{Name: "b", EST: 0, TCD: 10, CT: 2},
		{Name: "a", EST: 0, TCD: 10, CT: 2},
	}
	s1, err := Simulate(jobs, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Simulate([]Job{jobs[1], jobs[0]}, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.Outcomes {
		if s1.Outcomes[i].Finish != s2.Outcomes[i].Finish {
			t.Errorf("non-deterministic schedule: %+v vs %+v",
				s1.Outcomes[i], s2.Outcomes[i])
		}
	}
}

// TestCheckZeroAlloc pins the allocation-free oracle: for valid sets of up
// to 32 jobs Check allocates nothing, on the O(k) proof path, on the full
// window scan (feasible and infeasible) and with instruments installed.
func TestCheckZeroAlloc(t *testing.T) {
	loose := make([]Job, 0, 32)
	tight := make([]Job, 0, 32)
	for i := 0; i < 32; i++ {
		est := float64(i)
		loose = append(loose, Job{Name: "l", EST: 0, TCD: 1000, CT: 1})
		tight = append(tight, Job{Name: "t", EST: est, TCD: est + 2, CT: 1})
	}
	over := append(append([]Job(nil), tight...), Job{Name: "o", EST: 5, TCD: 7, CT: 2})[1:]
	cases := []struct {
		name string
		jobs []Job
		want bool
	}{
		{"proof", loose, true},
		{"scan feasible", tight, true},
		{"scan infeasible", over, false},
	}
	for _, tc := range cases {
		if ok, err := Check(tc.jobs); err != nil || ok != tc.want {
			t.Fatalf("%s: Check = %v, %v; want %v", tc.name, ok, err, tc.want)
		}
		if a := testing.AllocsPerRun(50, func() { _, _ = Check(tc.jobs) }); a != 0 {
			t.Errorf("%s: Check allocates %.1f per call, want 0", tc.name, a)
		}
	}
	Observe(obs.NewRegistry())
	defer Observe(nil)
	if a := testing.AllocsPerRun(50, func() { _, _ = Check(tight) }); a != 0 {
		t.Errorf("instrumented Check allocates %.1f per call, want 0", a)
	}
}

// TestWitnessNamesTightestWindow pins Witness's format on an infeasible
// set and its empty answer for fewer than two jobs.
func TestWitnessNamesTightestWindow(t *testing.T) {
	jobs := []Job{
		{Name: "a", EST: 0, TCD: 5, CT: 3},
		{Name: "b", EST: 1, TCD: 4, CT: 3},
	}
	ok, err := Check(jobs)
	if err != nil || ok {
		t.Fatalf("Check = %v, %v; want infeasible", ok, err)
	}
	if w := Witness(jobs); w != "window [0,5): demand 6 of 5 {a,b}" {
		t.Errorf("Witness = %q", w)
	}
	if w := Witness(jobs[:1]); w != "" {
		t.Errorf("Witness of one job = %q, want empty", w)
	}
}

// TestSimulateRejectsNonFinite is the regression test for a hang: a NaN
// EST used to turn the next release time into NaN and spin the event loop
// forever. Every non-finite EST, TCD or CT is now ErrBadJob under both
// policies; each call runs under a deadline so a regression fails instead
// of hanging the suite.
func TestSimulateRejectsNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	set := map[string]func(*Job, float64){
		"EST": func(j *Job, v float64) { j.EST = v },
		"TCD": func(j *Job, v float64) { j.TCD = v },
		"CT":  func(j *Job, v float64) { j.CT = v },
	}
	for _, policy := range []Policy{PreemptiveEDF, NonPreemptiveEDF} {
		for field, assign := range set {
			for _, v := range bad {
				j := Job{Name: "x", EST: 0, TCD: 5, CT: 1}
				assign(&j, v)
				done := make(chan error, 1)
				go func() {
					_, err := Simulate([]Job{j, {Name: "y", EST: 1, TCD: 4, CT: 1}}, policy)
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, ErrBadJob) {
						t.Errorf("%v, %s = %g: err = %v, want ErrBadJob", policy, field, v, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%v, %s = %g: Simulate did not return", policy, field, v)
				}
			}
		}
	}
	// Actual stays unconstrained: +Inf is the infinite-loop fault model.
	if _, err := Simulate([]Job{{Name: "x", EST: 0, TCD: 5, CT: 1, Actual: math.Inf(1)}}, PreemptiveEDF); err != nil {
		t.Errorf("Actual = +Inf rejected: %v", err)
	}
}
