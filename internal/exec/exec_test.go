package exec

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr error
	}{
		{"no policy", Config{Tasks: []Task{{Name: "a", Processor: "p", Deadline: 1, Budget: 1}}}, nil},
		{"empty name", Config{Policy: Preemptive, Tasks: []Task{{Processor: "p", Deadline: 1, Budget: 1}}}, ErrBadTask},
		{"no processor", Config{Policy: Preemptive, Tasks: []Task{{Name: "a", Deadline: 1, Budget: 1}}}, ErrBadTask},
		{"deadline before release", Config{Policy: Preemptive, Tasks: []Task{{Name: "a", Processor: "p", Release: 5, Deadline: 1, Budget: 1}}}, ErrBadTask},
		{"dup", Config{Policy: Preemptive, Tasks: []Task{
			{Name: "a", Processor: "p", Deadline: 1, Budget: 1},
			{Name: "a", Processor: "p", Deadline: 1, Budget: 1},
		}}, ErrDuplicateTask},
		{"unknown dep", Config{Policy: Preemptive, Tasks: []Task{
			{Name: "a", Processor: "p", Deadline: 1, Budget: 1, SendsTo: []string{"zz"}},
		}}, ErrUnknownTask},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(tt.cfg)
			if tt.wantErr == nil {
				if err == nil {
					t.Error("expected some error for policy 0")
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestSimpleCompletion(t *testing.T) {
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "t1", Process: "P", Processor: "cpu0", Release: 0, Deadline: 10, Budget: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes["t1"]
	if !o.Finished || o.Finish != 4 || o.Missed {
		t.Errorf("outcome: %+v", o)
	}
	if rep.Makespan != 4 {
		t.Errorf("makespan = %g", rep.Makespan)
	}
}

func TestTwoProcessorsRunInParallel(t *testing.T) {
	rep, err := Run(Config{
		Policy: NonPreemptive,
		Tasks: []Task{
			{Name: "a", Processor: "cpu0", Deadline: 10, Budget: 5},
			{Name: "b", Processor: "cpu1", Deadline: 10, Budget: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes["a"].Finish != 5 || rep.Outcomes["b"].Finish != 5 {
		t.Errorf("parallel finishes: a=%g b=%g",
			rep.Outcomes["a"].Finish, rep.Outcomes["b"].Finish)
	}
}

func TestEDFPreemption(t *testing.T) {
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "long", Processor: "cpu0", Release: 0, Deadline: 20, Budget: 8},
			{Name: "urgent", Processor: "cpu0", Release: 2, Deadline: 6, Budget: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes["urgent"].Finish != 5 {
		t.Errorf("urgent finish = %g, want 5", rep.Outcomes["urgent"].Finish)
	}
	if rep.Outcomes["long"].Finish != 11 {
		t.Errorf("long finish = %g, want 11", rep.Outcomes["long"].Finish)
	}
	if len(rep.Misses()) != 0 {
		t.Errorf("misses: %v", rep.Misses())
	}
}

func TestTimingFaultContainmentByPolicy(t *testing.T) {
	// E9: the §3.4.3 claim, end to end. A stuck task (infinite loop) on a
	// shared processor.
	tasks := func() []Task {
		return []Task{
			{Name: "stuck", Process: "P1", Processor: "cpu0", Release: 0, Deadline: 10, Budget: 3, Demand: math.Inf(1)},
			{Name: "v1", Process: "P2", Processor: "cpu0", Release: 1, Deadline: 8, Budget: 2},
			{Name: "v2", Process: "P2", Processor: "cpu0", Release: 2, Deadline: 12, Budget: 3},
		}
	}
	np, err := Run(Config{Policy: NonPreemptive, Tasks: tasks(), Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(np.Misses()); got != 3 {
		t.Errorf("non-preemptive misses = %v, want all 3", np.Misses())
	}
	p, err := Run(Config{Policy: Preemptive, Tasks: tasks(), Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	missed := map[string]bool{}
	for _, m := range p.Misses() {
		missed[m] = true
	}
	if missed["v1"] || missed["v2"] {
		t.Errorf("preemptive victims: %v", p.Misses())
	}
	if !missed["stuck"] {
		t.Error("faulty task should still miss")
	}
	if !p.Outcomes["stuck"].Aborted {
		t.Error("stuck task not aborted by budget enforcement")
	}
}

func TestMessagePrecedence(t *testing.T) {
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "producer", Processor: "cpu0", Deadline: 10, Budget: 3, SendsTo: []string{"consumer"}},
			{Name: "consumer", Processor: "cpu1", Deadline: 20, Budget: 2, WaitsFor: []string{"producer"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Outcomes["consumer"]
	if c.Start != 3 || c.Finish != 5 {
		t.Errorf("consumer start=%g finish=%g, want 3, 5", c.Start, c.Finish)
	}
}

func TestMessageDeadlockTerminates(t *testing.T) {
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "waiter", Processor: "cpu0", Deadline: 10, Budget: 1, WaitsFor: []string{"never"}},
			{Name: "never", Processor: "cpu1", Deadline: 10, Budget: 1, WaitsFor: []string{"waiter"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Misses()) != 2 {
		t.Errorf("deadlocked tasks should miss: %v", rep.Misses())
	}
}

func TestSharedMemoryTaintPropagation(t *testing.T) {
	// f3: a corrupt write taints later readers of the region.
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "w", Processor: "cpu0", Deadline: 10, Budget: 2,
				Writes: []string{"shm"}, CorruptsOutputs: true, SendsTo: []string{"r"}},
			{Name: "r", Processor: "cpu0", Deadline: 20, Budget: 2,
				Reads: []string{"shm"}, WaitsFor: []string{"w"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcomes["r"].Tainted {
		t.Error("reader not tainted by corrupt shared memory")
	}
	got := rep.Tainted()
	if strings.Join(got, ",") != "r,w" {
		t.Errorf("tainted = %v", got)
	}
}

func TestGuardedReaderContainsTaint(t *testing.T) {
	// The recovery-block guard (E8): same scenario, guarded reader.
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "w", Processor: "cpu0", Deadline: 10, Budget: 2,
				Writes: []string{"shm"}, CorruptsOutputs: true, SendsTo: []string{"r"}},
			{Name: "r", Processor: "cpu0", Deadline: 20, Budget: 2,
				Reads: []string{"shm"}, WaitsFor: []string{"w"}, Guarded: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes["r"].Tainted {
		t.Error("guarded reader absorbed taint")
	}
}

func TestSpanEventStream(t *testing.T) {
	// One scenario exercising preemption, corrupt shared memory and a
	// guarded reader; the installed span must stream the scheduler events.
	o := obs.New()
	span := o.StartSpan("exec")
	_, err := Run(Config{
		Policy: Preemptive,
		Span:   span,
		Tasks: []Task{
			{Name: "long", Processor: "cpu0", Release: 0, Deadline: 20, Budget: 8,
				Writes: []string{"shm"}, CorruptsOutputs: true},
			{Name: "urgent", Processor: "cpu0", Release: 2, Deadline: 6, Budget: 3},
			{Name: "reader", Processor: "cpu0", Release: 12, Deadline: 30, Budget: 2,
				Reads: []string{"shm"}, Guarded: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	span.End()
	counts := map[string]int{}
	for _, ev := range span.Events() {
		counts[ev.Name]++
	}
	for _, want := range []string{"task-start", "task-finish", "preempt", "taint", "guard"} {
		if counts[want] == 0 {
			t.Errorf("no %q event in span stream; got %v", want, counts)
		}
	}
	if counts["task-start"] != 3 || counts["task-finish"] != 3 {
		t.Errorf("start/finish counts = %v, want 3 each", counts)
	}
	// Every event carries the simulation timestamp.
	for _, ev := range span.Events() {
		found := false
		for _, a := range ev.Attrs {
			if a.Key == "sim_time" {
				found = true
			}
		}
		if !found {
			t.Fatalf("event %q lacks sim_time attr", ev.Name)
		}
	}
}

func TestMessageTaintChain(t *testing.T) {
	// f4: taint travels along a 3-task message chain; guarding the middle
	// task cuts the chain.
	mk := func(guardMid bool) *Report {
		rep, err := Run(Config{
			Policy: Preemptive,
			Tasks: []Task{
				{Name: "a", Processor: "cpu0", Deadline: 10, Budget: 1,
					CorruptsOutputs: true, SendsTo: []string{"b"}},
				{Name: "b", Processor: "cpu0", Deadline: 20, Budget: 1,
					WaitsFor: []string{"a"}, SendsTo: []string{"c"}, Guarded: guardMid},
				{Name: "c", Processor: "cpu0", Deadline: 30, Budget: 1,
					WaitsFor: []string{"b"}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	unguarded := mk(false)
	if got := strings.Join(unguarded.Tainted(), ","); got != "a,b,c" {
		t.Errorf("unguarded chain tainted = %q, want a,b,c", got)
	}
	guarded := mk(true)
	if got := strings.Join(guarded.Tainted(), ","); got != "a" {
		t.Errorf("guarded chain tainted = %q, want only a", got)
	}
}

func TestCleanWriteClearsRegionTaint(t *testing.T) {
	// A clean overwrite after the corrupt one restores the region.
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "bad", Processor: "cpu0", Deadline: 10, Budget: 1,
				Writes: []string{"shm"}, CorruptsOutputs: true},
			{Name: "fix", Processor: "cpu0", Release: 2, Deadline: 10, Budget: 1,
				Writes: []string{"shm"}},
			{Name: "late", Processor: "cpu1", Release: 5, Deadline: 20, Budget: 1,
				Reads: []string{"shm"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes["late"].Tainted {
		t.Error("late reader tainted despite clean overwrite")
	}
}

func TestNonPreemptiveRunsToCompletion(t *testing.T) {
	// Once started, a non-preemptive task finishes even if an
	// earlier-deadline task releases mid-run.
	rep, err := Run(Config{
		Policy: NonPreemptive,
		Tasks: []Task{
			{Name: "first", Processor: "cpu0", Release: 0, Deadline: 30, Budget: 10},
			{Name: "urgent", Processor: "cpu0", Release: 1, Deadline: 5, Budget: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes["first"].Finish != 10 {
		t.Errorf("first finish = %g, want 10 (no preemption)", rep.Outcomes["first"].Finish)
	}
	if !rep.Outcomes["urgent"].Missed {
		t.Error("urgent should miss under non-preemptive scheduling")
	}
}

func TestTraceContainsKeyEvents(t *testing.T) {
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "a", Processor: "cpu0", Deadline: 10, Budget: 1, SendsTo: []string{"b"}},
			{Name: "b", Processor: "cpu0", Deadline: 20, Budget: 1, WaitsFor: []string{"a"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Trace, "\n")
	for _, want := range []string{"a started", "message a->b", "b finished"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q:\n%s", want, joined)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Preemptive.String() != "preemptive" || NonPreemptive.String() != "non-preemptive" {
		t.Error("policy names wrong")
	}
	if Policy(7).String() != "Policy(7)" {
		t.Error("unknown policy name wrong")
	}
}

func TestRunRejectsZeroWorkTask(t *testing.T) {
	_, err := Run(Config{
		Policy: Preemptive,
		Tasks:  []Task{{Name: "idle", Processor: "p", Deadline: 5, Budget: 0}},
	})
	if !errors.Is(err, ErrBadTask) {
		t.Errorf("err = %v, want ErrBadTask", err)
	}
}

func TestGanttRendering(t *testing.T) {
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "a", Processor: "cpu0", Deadline: 10, Budget: 4},
			{Name: "b", Processor: "cpu1", Release: 2, Deadline: 4, Budget: 3}, // must miss
		},
		Horizon: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Gantt(40)
	for _, want := range []string{"cpu0:", "cpu1:", "a ", "#", "X"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
	if !strings.Contains(g, "gantt [0,") {
		t.Errorf("missing header:\n%s", g)
	}
}

func TestGanttNeverStartedTask(t *testing.T) {
	rep, err := Run(Config{
		Policy: Preemptive,
		Tasks: []Task{
			{Name: "waiter", Processor: "cpu0", Deadline: 5, Budget: 1, WaitsFor: []string{"never"}},
			{Name: "never", Processor: "cpu1", Deadline: 5, Budget: 1, WaitsFor: []string{"waiter"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Gantt(0)
	if !strings.Contains(g, "(never started)") {
		t.Errorf("gantt missing unstarted marker:\n%s", g)
	}
}
