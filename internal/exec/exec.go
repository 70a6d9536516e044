// Package exec is a discrete-event multiprocessor execution simulator for
// the framework's system model (ICDCS 1998 §2): processes consisting of
// single-threaded tasks that communicate through messages and shared
// memory, scheduled on homogeneous processors under a preemptive or
// non-preemptive policy.
//
// It makes the paper's task-level fault classes executable:
//
//   - shared-memory corruption (f3): a faulty task's writes taint a region,
//     and later readers of the region become tainted;
//   - message errors (f4): a tainted sender's messages taint the receiver,
//     unless the receiver guards its inputs (recovery-block acceptance);
//   - timing faults (f5): a task overrunning its budget starves its
//     processor under non-preemptive scheduling, while a preemptive
//     runtime kills it at budget exhaustion (§3.4.3 / §4.2.3).
package exec

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// Policy selects the scheduling policy.
type Policy int

// Scheduling policies (mirroring internal/sched).
const (
	// Preemptive runs the ready task with the earliest deadline and
	// enforces execution budgets.
	Preemptive Policy = iota + 1
	// NonPreemptive never interrupts a running task.
	NonPreemptive
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Preemptive:
		return "preemptive"
	case NonPreemptive:
		return "non-preemptive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Task is one schedulable single-threaded task.
type Task struct {
	// Name is the unique task name ("tasks have unique static names").
	Name string
	// Process is the owning process FCM.
	Process string
	// Processor assigns the task to a processor.
	Processor string
	// Release, Deadline, Budget are the timing triple (EST, TCD, CT).
	Release  float64
	Deadline float64
	Budget   float64
	// Demand is the true computation need; 0 means Budget. Demand >
	// Budget models a timing fault (infinite loop: +Inf).
	Demand float64
	// Reads and Writes name shared-memory regions accessed at start and
	// completion respectively.
	Reads  []string
	Writes []string
	// SendsTo names tasks that receive a message at this task's
	// completion.
	SendsTo []string
	// WaitsFor names tasks whose message must arrive before this task can
	// start (in addition to its release time).
	WaitsFor []string
	// CorruptsOutputs marks an injected value fault: the task's writes and
	// messages are erroneous even though it completes.
	CorruptsOutputs bool
	// Guarded models a recovery-block/acceptance-test input guard: tainted
	// messages and reads are detected and discarded rather than absorbed.
	Guarded bool
}

func (t Task) demand() float64 {
	if t.Demand > 0 {
		return t.Demand
	}
	return t.Budget
}

// Config configures a simulation run.
type Config struct {
	// Policy is the scheduling policy of every processor.
	Policy  Policy
	Tasks   []Task
	Horizon float64 // 0 = default
	// Span, when set, receives the scheduler event stream (start, finish,
	// preempt, abort, taint, message) with simulated timestamps, mirroring
	// the textual Trace in structured form.
	Span *obs.Span
}

// Outcome describes one task's simulated fate.
type Outcome struct {
	Task     string
	Process  string
	Started  bool
	Start    float64
	Finished bool
	Finish   float64
	// Missed is true when the task finished late or never finished.
	Missed bool
	// Aborted is true when the preemptive runtime killed the task at
	// budget exhaustion.
	Aborted bool
	// Tainted is true when the task absorbed erroneous data (via message
	// or shared memory) or was configured to corrupt its outputs.
	Tainted bool
}

// Report is the result of a run.
type Report struct {
	Policy   Policy
	Outcomes map[string]*Outcome
	// Trace lists events in time order, for debugging and golden tests.
	Trace []string
	// Makespan is the completion time of the last event.
	Makespan float64
}

// Misses returns the names of tasks that missed deadlines, sorted.
func (r *Report) Misses() []string {
	var out []string
	for name, o := range r.Outcomes {
		if o.Missed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Tainted returns the names of tasks that absorbed or produced erroneous
// data, sorted.
func (r *Report) Tainted() []string {
	var out []string
	for name, o := range r.Outcomes {
		if o.Tainted {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Errors returned by Run.
var (
	ErrBadTask       = errors.New("exec: invalid task")
	ErrDuplicateTask = errors.New("exec: duplicate task name")
	ErrUnknownTask   = errors.New("exec: reference to unknown task")
)

const defaultHorizon = 1e6

type taskState struct {
	task      Task
	remaining float64
	budget    float64
	started   bool
	start     float64
	finished  bool
	finish    float64
	aborted   bool
	tainted   bool
	msgsIn    map[string]bool // sender -> arrived
	taintsIn  bool            // a tainted message arrived (and absorbed)
}

type region struct {
	lastWrite float64
	tainted   bool
	written   bool
}

// Run executes the configured task set and returns the report.
func Run(cfg Config) (*Report, error) {
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = defaultHorizon
	}
	if cfg.Policy != Preemptive && cfg.Policy != NonPreemptive {
		return nil, fmt.Errorf("exec: unknown policy %d", int(cfg.Policy))
	}
	states := map[string]*taskState{}
	var order []string
	for _, t := range cfg.Tasks {
		if t.Name == "" || t.Processor == "" {
			return nil, fmt.Errorf("%w: %+v", ErrBadTask, t)
		}
		if t.Budget < 0 || t.Deadline < t.Release {
			return nil, fmt.Errorf("%w: %s", ErrBadTask, t.Name)
		}
		if _, dup := states[t.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateTask, t.Name)
		}
		if t.demand() == 0 {
			// Zero-work tasks would otherwise be skipped as "nothing
			// remaining" and reported as misses.
			return nil, fmt.Errorf("%w: %s has no work (budget/demand 0)", ErrBadTask, t.Name)
		}
		states[t.Name] = &taskState{
			task:      t,
			remaining: t.demand(),
			budget:    t.Budget,
			msgsIn:    map[string]bool{},
		}
		order = append(order, t.Name)
	}
	sort.Strings(order)
	for _, name := range order {
		st := states[name]
		for _, dep := range append(append([]string{}, st.task.WaitsFor...), st.task.SendsTo...) {
			if _, ok := states[dep]; !ok {
				return nil, fmt.Errorf("%w: %s references %q", ErrUnknownTask, name, dep)
			}
		}
	}

	regions := map[string]*region{}
	processors := map[string]bool{}
	for _, st := range states {
		processors[st.task.Processor] = true
	}
	procList := make([]string, 0, len(processors))
	for p := range processors {
		procList = append(procList, p)
	}
	sort.Strings(procList)

	rep := &Report{Policy: cfg.Policy, Outcomes: map[string]*Outcome{}}
	logf := func(t float64, format string, args ...any) {
		rep.Trace = append(rep.Trace, fmt.Sprintf("[%8.3f] %s", t, fmt.Sprintf(format, args...)))
	}
	// emit mirrors scheduler decisions onto the observer span with the
	// simulated clock attached; no-op when unobserved.
	emit := func(t float64, name string, attrs ...obs.Attr) {
		if cfg.Span == nil {
			return
		}
		cfg.Span.Event(name, append(attrs, obs.Float("sim_time", t))...)
	}

	running := map[string]*taskState{} // processor -> running task (non-preemptive continuity)
	now := 0.0

	ready := func(st *taskState, t float64) bool {
		if st.finished || st.aborted || st.task.Release > t {
			return false
		}
		for _, dep := range st.task.WaitsFor {
			if !st.msgsIn[dep] {
				return false
			}
		}
		return true
	}

	// onStart applies read-time taint.
	onStart := func(st *taskState, t float64) {
		st.started = true
		st.start = t
		taint := st.taintsIn
		for _, r := range st.task.Reads {
			if reg := regions[r]; reg != nil && reg.written && reg.tainted {
				if st.task.Guarded {
					logf(t, "%s: guarded read discarded tainted region %s", st.task.Name, r)
					emit(t, "guard", obs.String("task", st.task.Name), obs.String("region", r))
				} else {
					taint = true
					logf(t, "%s: read tainted region %s", st.task.Name, r)
					emit(t, "taint", obs.String("task", st.task.Name),
						obs.String("via", "shared-memory"), obs.String("region", r))
				}
			}
		}
		if taint {
			st.tainted = true
		}
		logf(t, "%s started on %s", st.task.Name, st.task.Processor)
		emit(t, "task-start", obs.String("task", st.task.Name),
			obs.String("processor", st.task.Processor))
	}

	// deliver hands a message to its receiver, applying guard semantics.
	deliver := func(rcv *taskState, from string, corrupt bool, t float64) {
		rcv.msgsIn[from] = true
		switch {
		case corrupt && rcv.task.Guarded:
			logf(t, "message %s->%s: tainted, discarded by guard", from, rcv.task.Name)
			emit(t, "guard", obs.String("task", rcv.task.Name), obs.String("from", from))
		case corrupt:
			rcv.taintsIn = true
			logf(t, "message %s->%s: tainted", from, rcv.task.Name)
			emit(t, "taint", obs.String("task", rcv.task.Name),
				obs.String("via", "message"), obs.String("from", from))
		default:
			logf(t, "message %s->%s", from, rcv.task.Name)
			emit(t, "message", obs.String("from", from), obs.String("to", rcv.task.Name))
		}
	}

	// onFinish applies writes and message sends.
	onFinish := func(st *taskState, t float64) {
		st.finished = true
		st.finish = t
		corrupt := st.tainted || st.task.CorruptsOutputs
		if st.task.CorruptsOutputs {
			st.tainted = true
		}
		for _, w := range st.task.Writes {
			reg := regions[w]
			if reg == nil {
				reg = &region{}
				regions[w] = reg
			}
			reg.written = true
			reg.lastWrite = t
			reg.tainted = corrupt
			if corrupt {
				logf(t, "%s wrote corrupt data to region %s", st.task.Name, w)
				emit(t, "taint", obs.String("task", st.task.Name),
					obs.String("via", "corrupt-write"), obs.String("region", w))
			}
		}
		for _, dst := range st.task.SendsTo {
			deliver(states[dst], st.task.Name, corrupt, t)
		}
		logf(t, "%s finished", st.task.Name)
		emit(t, "task-finish", obs.String("task", st.task.Name),
			obs.Bool("tainted", st.tainted),
			obs.Bool("missed", t > st.task.Deadline+1e-12))
	}

	for now < horizon {
		// Pick what runs on each processor at `now`, then advance to the
		// next boundary event.
		type dispatch struct {
			proc string
			st   *taskState
		}
		var dispatches []dispatch
		nextEvent := math.Inf(1)
		anyUnfinished := false

		for _, proc := range procList {
			var pick *taskState
			if cfg.Policy == NonPreemptive {
				if cur := running[proc]; cur != nil && !cur.finished && !cur.aborted {
					pick = cur
				}
			}
			if pick == nil {
				for _, name := range order {
					st := states[name]
					if st.task.Processor != proc || !ready(st, now) {
						continue
					}
					if cfg.Policy == Preemptive && (st.budget <= 1e-12 || now >= st.task.Deadline) {
						st.aborted = true
						logf(now, "%s aborted (budget/deadline enforcement)", st.task.Name)
						emit(now, "abort", obs.String("task", st.task.Name),
							obs.String("reason", "budget/deadline enforcement"))
						continue
					}
					if pick == nil || st.task.Deadline < pick.task.Deadline ||
						(st.task.Deadline == pick.task.Deadline && st.task.Name < pick.task.Name) {
						pick = st
					}
				}
			}
			if pick != nil {
				if prev := running[proc]; prev != nil && prev != pick &&
					!prev.finished && !prev.aborted && prev.started {
					logf(now, "%s preempted by %s on %s", prev.task.Name, pick.task.Name, proc)
					emit(now, "preempt", obs.String("task", prev.task.Name),
						obs.String("by", pick.task.Name), obs.String("processor", proc))
				}
				dispatches = append(dispatches, dispatch{proc, pick})
				running[proc] = pick
				if !pick.started {
					onStart(pick, now)
				}
				step := pick.remaining
				if cfg.Policy == Preemptive {
					step = math.Min(step, pick.budget)
					step = math.Min(step, pick.task.Deadline-now)
				}
				nextEvent = math.Min(nextEvent, now+step)
			}
		}
		// Future releases and message-unblocked tasks appear at release
		// times or at completions (already covered). Account releases:
		for _, name := range order {
			st := states[name]
			if st.finished || st.aborted {
				continue
			}
			anyUnfinished = true
			if st.task.Release > now {
				nextEvent = math.Min(nextEvent, st.task.Release)
			}
		}
		if !anyUnfinished {
			break
		}
		if len(dispatches) == 0 {
			if math.IsInf(nextEvent, 1) {
				break // deadlock: tasks waiting for messages that never come
			}
			now = nextEvent
			continue
		}
		if math.IsInf(nextEvent, 1) || nextEvent > horizon {
			now = horizon
			break
		}
		if nextEvent <= now {
			// A zero-length step (deadline boundary): force abort handling
			// on the next loop by nudging time.
			nextEvent = now
		}
		delta := nextEvent - now
		for _, d := range dispatches {
			d.st.remaining -= delta
			d.st.budget -= delta
			if d.st.remaining <= 1e-12 {
				d.st.remaining = 0
				onFinish(d.st, nextEvent)
				running[d.proc] = nil
			} else if cfg.Policy == Preemptive && d.st.budget <= 1e-12 {
				d.st.aborted = true
				logf(nextEvent, "%s aborted (budget exhausted)", d.st.task.Name)
				emit(nextEvent, "abort", obs.String("task", d.st.task.Name),
					obs.String("reason", "budget exhausted"))
				running[d.proc] = nil
			}
		}
		if delta == 0 {
			// Guarantee progress: abort any dispatched task pinned at its
			// deadline with remaining work.
			for _, d := range dispatches {
				if !d.st.finished && !d.st.aborted && now >= d.st.task.Deadline {
					d.st.aborted = true
					logf(now, "%s aborted (deadline reached)", d.st.task.Name)
					emit(now, "abort", obs.String("task", d.st.task.Name),
						obs.String("reason", "deadline reached"))
					running[d.proc] = nil
				}
			}
		}
		now = nextEvent
	}

	rep.Makespan = now
	for _, name := range order {
		st := states[name]
		missed := !st.finished || st.finish > st.task.Deadline+1e-12
		rep.Outcomes[name] = &Outcome{
			Task:     name,
			Process:  st.task.Process,
			Started:  st.started,
			Start:    st.start,
			Finished: st.finished,
			Finish:   st.finish,
			Missed:   missed,
			Aborted:  st.aborted,
			Tainted:  st.tainted,
		}
	}
	return rep, nil
}
