// Package sched provides the scheduling-feasibility oracles the integration
// framework relies on (ICDCS 1998 §6: "Several well-known scheduling
// algorithms can be used to check the feasibility of scheduling sets of
// these processes on the same processor").
//
// The worked example characterises each process by a timing triple
// ⟨EST, TCD, CT⟩ — earliest start time, task completion deadline, and
// computation time — for a single-shot job. Two FCMs may be combined onto
// one processor only if the union of their jobs is feasible there; the
// paper's example is that ⟨0,5,3⟩ and ⟨3,6,4⟩ cannot share a processor.
//
// Feasibility of single-shot jobs with release times and deadlines under
// preemptive scheduling is decided exactly by the processor-demand
// criterion: for every window [s, d) with s an EST and d a TCD, the total
// computation of jobs entirely inside the window must not exceed d − s.
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Job is a single-shot job with a release time (EST), absolute deadline
// (TCD) and worst-case computation time (CT). CT is also the job's declared
// execution budget.
//
// Actual, when positive, is the job's true computation demand and may
// exceed CT — this models the paper's timing fault ("a task in an infinite
// loop", §3.4.3) with Actual = +Inf. A preemptive runtime enforces the CT
// budget and kills an overrunning job (the containment mechanism of
// ARINC-653-style partitioning in the AIMS system the paper cites); a
// non-preemptive runtime cannot regain control, so the overrun holds the
// processor. Actual = 0 means the job consumes exactly CT.
type Job struct {
	Name   string
	EST    float64
	TCD    float64
	CT     float64
	Actual float64
}

// Demand returns the job's true computation demand (Actual, or CT when
// Actual is unset).
func (j Job) Demand() float64 {
	if j.Actual > 0 {
		return j.Actual
	}
	return j.CT
}

// Window returns the length of the job's feasible window TCD − EST.
func (j Job) Window() float64 { return j.TCD - j.EST }

// Validate checks the job's internal consistency. EST, TCD and CT must be
// finite (see checkFinite). Actual is NOT constrained: +Inf there
// legitimately models a task stuck in an infinite loop (the paper's R4
// discussion).
func (j Job) Validate() error {
	if err := j.checkFinite(); err != nil {
		return err
	}
	switch {
	case j.CT < 0:
		return fmt.Errorf("%w: %s has CT %g", ErrBadJob, j.Name, j.CT)
	case j.TCD < j.EST:
		return fmt.Errorf("%w: %s has TCD %g before EST %g", ErrBadJob, j.Name, j.TCD, j.EST)
	case j.CT > j.Window():
		return fmt.Errorf("%w: %s needs CT %g in window %g", ErrBadJob, j.Name, j.CT, j.Window())
	}
	return nil
}

// checkFinite rejects a NaN or infinite EST, TCD or CT. Every comparison
// with NaN is false, so range checks alone would let NaN through.
func (j Job) checkFinite() error {
	for _, v := range [...]struct {
		name string
		val  float64
	}{{"EST", j.EST}, {"TCD", j.TCD}, {"CT", j.CT}} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("%w: %s has non-finite %s %g", ErrBadJob, j.Name, v.name, v.val)
		}
	}
	return nil
}

// String renders the job as "name⟨EST,TCD,CT⟩".
func (j Job) String() string {
	return fmt.Sprintf("%s<%g,%g,%g>", j.Name, j.EST, j.TCD, j.CT)
}

// ErrBadJob marks an internally inconsistent job.
var ErrBadJob = errors.New("sched: invalid job")

// maxStackJobs bounds the job sets whose window scan runs in stack
// buffers; larger sets allocate their sorted release and deadline lists.
const maxStackJobs = 32

// Check reports whether the given single-shot jobs can all be scheduled on
// one processor (preemptive EDF feasibility, decided exactly by the
// processor-demand criterion), or an ErrBadJob error for an invalid job.
// It allocates nothing for valid sets of up to 32 jobs; Witness explains an
// infeasible verdict.
//
// A set whose total CT, summed in input order, fits in its shortest window
// TCD − EST is accepted in O(k) without the window scan; nearly every
// candidate pair of an integration passes it, and the O(k³) scan would
// otherwise dominate condensation. The shortcut gives
// the scan's verdict bit for bit: a window [s, d) holding job i has
// fl(d − s) ≥ fl(TCD_i − EST_i) because rounding is monotone, and the
// in-order sum of the CTs inside any window is at most the in-order sum of
// all of them because every CT is non-negative, so no window's slack can
// be negative.
//
// When instrumentation is installed via Observe, every call books its
// verdict and latency; otherwise the overhead is one atomic load.
func Check(jobs []Job) (bool, error) {
	start, observed := observedNow()
	ok, err := check(jobs)
	record(start, ok, observed)
	return ok, err
}

// CheckValid is Check for jobs that have each passed Job.Validate: it
// gives Check's verdict without validating them again, for a caller that
// asks about many sets drawn from jobs it validated once. On an invalid
// job its verdict means nothing.
func CheckValid(jobs []Job) bool {
	start, observed := observedNow()
	ok := feasible(jobs)
	record(start, ok, observed)
	return ok
}

func check(jobs []Job) (bool, error) {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return false, err
		}
	}
	return feasible(jobs), nil
}

// feasible is the processor-demand verdict on valid jobs.
func feasible(jobs []Job) bool {
	if len(jobs) <= 1 {
		return true
	}
	total, shortest := 0.0, math.Inf(1)
	for _, j := range jobs {
		total += j.CT
		if w := j.Window(); w < shortest {
			shortest = w
		}
	}
	if total <= shortest {
		return true
	}
	var sbuf, ebuf [maxStackJobs]float64
	starts, ends := bounds(jobs, sbuf[:0], ebuf[:0])
	for _, s := range starts {
		for _, d := range ends {
			if d > s && (d-s)-demand(jobs, s, d) < 0 {
				return false
			}
		}
	}
	return true
}

// Witness describes the tightest processor-demand window of valid jobs,
// "window [s,d): demand D of L {names}": the first window, in ascending
// (s, d) order, with the least slack d − s − D. It is "" for fewer than
// two jobs.
func Witness(jobs []Job) string {
	if len(jobs) <= 1 {
		return ""
	}
	var sbuf, ebuf [maxStackJobs]float64
	starts, ends := bounds(jobs, sbuf[:0], ebuf[:0])
	worst := math.Inf(1)
	var ws, wd, wdemand float64
	for _, s := range starts {
		for _, d := range ends {
			if d <= s {
				continue
			}
			dem := demand(jobs, s, d)
			if slack := (d - s) - dem; slack < worst {
				worst, ws, wd, wdemand = slack, s, d, dem
			}
		}
	}
	if math.IsInf(worst, 1) {
		return ""
	}
	var inside []string
	for _, j := range jobs {
		if j.EST >= ws && j.TCD <= wd {
			inside = append(inside, j.Name)
		}
	}
	return fmt.Sprintf("window [%g,%g): demand %g of %g {%s}",
		ws, wd, wdemand, wd-ws, strings.Join(inside, ","))
}

// bounds appends the jobs' release times to starts and deadlines to ends
// and sorts both ascending. These are the window end points the
// processor-demand criterion has to try.
func bounds(jobs []Job, starts, ends []float64) ([]float64, []float64) {
	for _, j := range jobs {
		starts = append(starts, j.EST)
		ends = append(ends, j.TCD)
	}
	slices.Sort(starts)
	slices.Sort(ends)
	return starts, ends
}

// demand sums, in input order, the CT of the jobs lying entirely inside
// the window [s, d).
func demand(jobs []Job, s, d float64) float64 {
	sum := 0.0
	for _, j := range jobs {
		if j.EST >= s && j.TCD <= d {
			sum += j.CT
		}
	}
	return sum
}

// Policy selects the uniprocessor scheduling policy for Simulate.
type Policy int

// Scheduling policies (§3.4.3: "If non-preemptive scheduling is used, then
// a timing fault (e.g., a task in an infinite loop) can cause all other
// tasks also to fail. However, the probability of transmission of the
// timing fault can be minimized by using preemptive scheduling").
const (
	// PreemptiveEDF runs the released job with the earliest deadline,
	// preempting on release.
	PreemptiveEDF Policy = iota + 1
	// NonPreemptiveEDF picks by earliest deadline but never preempts a
	// running job.
	NonPreemptiveEDF
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PreemptiveEDF:
		return "preemptive-EDF"
	case NonPreemptiveEDF:
		return "non-preemptive-EDF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Outcome describes one job's fate in a simulated schedule.
type Outcome struct {
	Job        Job
	Start      float64 // first time the job ran
	Finish     float64 // completion time (Inf if never completed)
	MissedLine bool    // finished after TCD (or never)
}

// Schedule is the result of simulating a job set under a policy.
type Schedule struct {
	Policy   Policy
	Outcomes []Outcome // sorted by job name
	Makespan float64
}

// Misses returns the names of jobs that missed their deadlines.
func (s Schedule) Misses() []string {
	var out []string
	for _, o := range s.Outcomes {
		if o.MissedLine {
			out = append(out, o.Job.Name)
		}
	}
	return out
}

// AllMet reports whether every job met its deadline.
func (s Schedule) AllMet() bool { return len(s.Misses()) == 0 }

// Horizon caps simulated time; jobs unfinished at the horizon are deadline
// misses with Finish = +Inf.
const defaultHorizon = 1e6

// Simulate runs the job set on one processor under the given policy using
// event-driven EDF simulation. A job whose Actual demand exceeds its CT
// budget models the paper's "task in an infinite loop" timing fault: under
// NonPreemptiveEDF it occupies the processor once started (until the
// horizon); under PreemptiveEDF the runtime kills it when its budget is
// exhausted, containing the fault.
//
// A job with a non-finite EST, TCD or CT, a negative CT or a TCD before
// its EST is rejected with ErrBadJob; Actual may be +Inf. A CT larger than
// the job's window is accepted: the job simply misses its deadline.
func Simulate(jobs []Job, policy Policy) (Schedule, error) {
	for _, j := range jobs {
		if err := j.checkFinite(); err != nil {
			return Schedule{}, err
		}
		if j.CT < 0 || j.TCD < j.EST {
			return Schedule{}, fmt.Errorf("%w: %s", ErrBadJob, j.Name)
		}
	}
	type state struct {
		job       Job
		remaining float64 // true demand left
		budget    float64 // declared budget left (preemptive enforcement)
		started   bool
		aborted   bool
		start     float64
		finish    float64
	}
	states := make([]*state, 0, len(jobs))
	for _, j := range jobs {
		st := &state{job: j, remaining: j.Demand(), budget: j.CT, finish: math.Inf(1)}
		if st.remaining == 0 {
			// A zero-work job completes the moment it is released.
			st.started = true
			st.start = j.EST
			st.finish = j.EST
		}
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].job.Name < states[j].job.Name })

	now := 0.0
	var running *state // for non-preemptive continuity
	for {
		// Released, unfinished jobs.
		var ready []*state
		var nextRelease = math.Inf(1)
		for _, st := range states {
			if st.remaining <= 0 || st.aborted {
				continue
			}
			// Budget and deadline enforcement: under preemptive scheduling
			// the runtime regains control at every timer tick, so a job
			// that has exhausted its declared CT budget, or whose deadline
			// has passed, is killed instead of occupying the processor.
			// This is what makes preemption a containment mechanism
			// (§3.4.3).
			if policy == PreemptiveEDF && (st.budget <= 1e-12 || now >= st.job.TCD) {
				st.aborted = true
				continue
			}
			if st.job.EST <= now {
				ready = append(ready, st)
			} else {
				nextRelease = math.Min(nextRelease, st.job.EST)
			}
		}
		if len(ready) == 0 {
			if math.IsInf(nextRelease, 1) {
				break // all done
			}
			now = nextRelease
			continue
		}
		var pick *state
		if policy == NonPreemptiveEDF && running != nil && running.remaining > 0 {
			pick = running
		} else {
			for _, st := range ready {
				if pick == nil || st.job.TCD < pick.job.TCD ||
					(st.job.TCD == pick.job.TCD && st.job.Name < pick.job.Name) {
					pick = st
				}
			}
		}
		if !pick.started {
			pick.started = true
			pick.start = now
		}
		running = pick
		// Run until the job finishes or (preemptive only) the next release.
		runFor := pick.remaining
		if policy == PreemptiveEDF {
			if !math.IsInf(nextRelease, 1) {
				runFor = math.Min(runFor, nextRelease-now)
			}
			// Never run past the job's budget or its deadline: the abort
			// check above fires on the next iteration.
			runFor = math.Min(runFor, pick.budget)
			runFor = math.Min(runFor, pick.job.TCD-now)
		}
		if now+runFor > defaultHorizon {
			// Horizon hit (e.g. an infinite-loop job under non-preemptive
			// scheduling). Everything unfinished misses.
			now = defaultHorizon
			break
		}
		now += runFor
		pick.remaining -= runFor
		pick.budget -= runFor
		if pick.remaining <= 1e-12 {
			pick.remaining = 0
			pick.finish = now
			running = nil
		}
	}

	out := Schedule{Policy: policy, Makespan: now}
	for _, st := range states {
		missed := math.IsInf(st.finish, 1) || st.finish > st.job.TCD+1e-12
		out.Outcomes = append(out.Outcomes, Outcome{
			Job:        st.job,
			Start:      st.start,
			Finish:     st.finish,
			MissedLine: missed,
		})
	}
	return out, nil
}
