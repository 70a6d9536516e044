package hw

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

func TestAddNodeDefaults(t *testing.T) {
	p := NewPlatform()
	if err := p.AddNode(Node{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	n, err := p.Node("a")
	if err != nil {
		t.Fatal(err)
	}
	if n.Capacity != 1 {
		t.Errorf("default capacity = %g, want 1", n.Capacity)
	}
	if n.Resources == nil {
		t.Error("nil resources map")
	}
}

func TestAddNodeErrors(t *testing.T) {
	p := NewPlatform()
	if err := p.AddNode(Node{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := p.AddNode(Node{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(Node{Name: "a"}); !errors.Is(err, ErrDuplicateTag) {
		t.Errorf("err = %v, want ErrDuplicateTag", err)
	}
}

func TestAddNodeCopiesValue(t *testing.T) {
	p := NewPlatform()
	n := Node{Name: "a", Resources: map[string]bool{"io": true}}
	if err := p.AddNode(n); err != nil {
		t.Fatal(err)
	}
	n.Name = "changed"
	got, err := p.Node("a")
	if err != nil || got.Name != "a" {
		t.Errorf("stored node aliased caller's struct: %+v, %v", got, err)
	}
}

func TestLinkValidation(t *testing.T) {
	p := NewPlatform()
	if err := p.AddNode(Node{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(Node{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		a, b    string
		cost    float64
		wantErr error
	}{
		{"self", "a", "a", 1, ErrBadTopology},
		{"missing", "a", "z", 1, ErrNoSuchNode},
		{"zero cost", "a", "b", 0, ErrBadTopology},
		{"negative", "a", "b", -1, ErrBadTopology},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := p.Link(tt.a, tt.b, tt.cost); !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if err := p.Link("a", "b", 2.5); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if d, ok := p.Distance(pair[0], pair[1]); !ok || d != 2.5 {
			t.Errorf("Distance(%s,%s) = %g,%v, want 2.5: link not symmetric", pair[0], pair[1], d, ok)
		}
	}
}

func TestCompleteTopology(t *testing.T) {
	p, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 6 {
		t.Errorf("nodes = %d, want 6", p.NumNodes())
	}
	// Every pair is linked at unit cost, so every distance is one hop.
	names := p.Nodes()
	for i := range names {
		for j := range names {
			want := 1.0
			if i == j {
				want = 0
			}
			if d, ok := p.Distance(names[i], names[j]); !ok || d != want {
				t.Errorf("Distance(%s,%s) = %g,%v, want %g", names[i], names[j], d, ok, want)
			}
		}
	}
	// Each node is its own FCR.
	for _, name := range names {
		n, err := p.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		if n.FCR != name {
			t.Errorf("node %s: FCR %q, want its own", name, n.FCR)
		}
	}
	if _, err := Complete(0); !errors.Is(err, ErrBadTopology) {
		t.Errorf("Complete(0) err = %v", err)
	}
}

func TestRingTopologyAndDistance(t *testing.T) {
	p, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := p.Distance("hw1", "hw4")
	if !ok || d != 3 {
		t.Errorf("Distance(hw1,hw4) = %g,%v, want 3", d, ok)
	}
	d, ok = p.Distance("hw1", "hw6")
	if !ok || d != 1 {
		t.Errorf("Distance(hw1,hw6) = %g,%v, want 1 (wraparound)", d, ok)
	}
	if _, err := Ring(2); !errors.Is(err, ErrBadTopology) {
		t.Errorf("Ring(2) err = %v", err)
	}
}

func TestMeshTopology(t *testing.T) {
	p, err := Mesh(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 6 {
		t.Errorf("nodes = %d, want 6", p.NumNodes())
	}
	d, ok := p.Distance("hw0_0", "hw1_2")
	if !ok || d != 3 {
		t.Errorf("manhattan distance = %g,%v, want 3", d, ok)
	}
	names := p.Nodes()
	for _, b := range names[1:] {
		if _, ok := p.Distance(names[0], b); !ok {
			t.Errorf("mesh: %s unreachable from %s", b, names[0])
		}
	}
	if _, err := Mesh(1, 1); !errors.Is(err, ErrBadTopology) {
		t.Errorf("Mesh(1,1) err = %v", err)
	}
}

func TestDistanceEdgeCases(t *testing.T) {
	p := NewPlatform()
	if err := p.AddNode(Node{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(Node{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if d, ok := p.Distance("a", "a"); !ok || d != 0 {
		t.Errorf("self distance = %g,%v", d, ok)
	}
	if _, ok := p.Distance("a", "b"); ok {
		t.Error("disconnected nodes reported connected")
	}
	if _, ok := p.Distance("a", "zzz"); ok {
		t.Error("missing node reported connected")
	}
}

func TestDistancePrefersCheapPath(t *testing.T) {
	p := NewPlatform()
	for _, n := range []string{"a", "b", "c"} {
		if err := p.AddNode(Node{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	// Direct expensive link vs cheap two-hop path.
	if err := p.Link("a", "c", 10); err != nil {
		t.Fatal(err)
	}
	if err := p.Link("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Link("b", "c", 1); err != nil {
		t.Fatal(err)
	}
	d, ok := p.Distance("a", "c")
	if !ok || d != 2 {
		t.Errorf("Distance = %g,%v, want 2", d, ok)
	}
}

func TestResourcesAndFCRs(t *testing.T) {
	p := NewPlatform()
	if err := p.AddNode(Node{Name: "a", FCR: "cab1", Resources: map[string]bool{"adc": true}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(Node{Name: "b", FCR: "cab1"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(Node{Name: "c", FCR: "cab2"}); err != nil {
		t.Fatal(err)
	}
	n, err := p.Node("a")
	if err != nil {
		t.Fatal(err)
	}
	if !n.HasResource("adc") || n.HasResource("dac") {
		t.Error("resource lookup wrong")
	}
	for name, want := range map[string]string{"a": "cab1", "b": "cab1", "c": "cab2"} {
		n, err := p.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		if n.FCR != want {
			t.Errorf("node %s: FCR %q, want %s", name, n.FCR, want)
		}
	}
}

func TestNodeMissing(t *testing.T) {
	p := NewPlatform()
	if _, err := p.Node("ghost"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("err = %v, want ErrNoSuchNode", err)
	}
}

// uncachedDistance is Distance as it ran before the cached table: a
// map-based Dijkstra per call, stopping when b is settled.
func uncachedDistance(p *Platform, a, b string) (float64, bool) {
	if _, ok := p.nodes[a]; !ok {
		return 0, false
	}
	if _, ok := p.nodes[b]; !ok {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	const unvisited = -1.0
	dist := map[string]float64{a: 0}
	done := map[string]bool{}
	for {
		cur, curD := "", unvisited
		for n, d := range dist {
			if done[n] {
				continue
			}
			if curD == unvisited || d < curD || (d == curD && n < cur) {
				cur, curD = n, d
			}
		}
		if cur == "" {
			return 0, false
		}
		if cur == b {
			return curD, true
		}
		done[cur] = true
		for nbr, cost := range p.links[cur] {
			nd := curD + cost
			if old, ok := dist[nbr]; !ok || nd < old {
				dist[nbr] = nd
			}
		}
	}
}

// TestDistanceMatchesUncachedDijkstra checks the cached table against a
// per-call Dijkstra, bit for bit, on random topologies with random float
// costs, connected and not. Four goroutines query each fresh platform at
// once, so under -race the lazy build is a race probe too. Adding a link
// or a node must invalidate the table.
func TestDistanceMatchesUncachedDijkstra(t *testing.T) {
	rng := rand.New(rand.NewPCG(1998, 11))
	check := func(p *Platform, round int) {
		t.Helper()
		names := append(p.Nodes(), "missing")
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, a := range names {
					for _, b := range names {
						gd, gok := p.Distance(a, b)
						wd, wok := uncachedDistance(p, a, b)
						if gd != wd || gok != wok {
							errs <- fmt.Sprintf("round %d: Distance(%s, %s) = %v, %v; Dijkstra %v, %v",
								round, a, b, gd, gok, wd, wok)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
	for round := 0; round < 60; round++ {
		p := NewPlatform()
		n := 1 + rng.IntN(9)
		for i := 0; i < n; i++ {
			if err := p.AddNode(Node{Name: fmt.Sprintf("n%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		cost := func() float64 {
			if rng.IntN(2) == 0 {
				return float64(1+rng.IntN(4)) / 10 // 0.1-step sums round
			}
			return 0.01 + rng.Float64()
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.IntN(3) == 0 {
					if err := p.Link(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j), cost()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		check(p, round)
		if n >= 2 {
			if err := p.Link("n0", fmt.Sprintf("n%d", n-1), cost()); err != nil {
				t.Fatal(err)
			}
			check(p, round)
		}
		if err := p.AddNode(Node{Name: "extra"}); err != nil {
			t.Fatal(err)
		}
		check(p, round)
		if err := p.Link("extra", "n0", cost()); err != nil {
			t.Fatal(err)
		}
		check(p, round)
	}
	// Complete stores its table in closed form: it must equal Dijkstra's,
	// and a later Link or AddNode must still clear it.
	for n := 1; n <= 25; n++ {
		p, err := Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		round := 100 + n
		got, want := p.dist.Load(), p.distances()
		if got == nil || !reflect.DeepEqual(got.index, want.index) || !reflect.DeepEqual(got.reach, want.reach) {
			t.Fatalf("Complete(%d): stored table %+v, Dijkstra %+v", n, got, want)
		}
		for i := range want.cost {
			if math.Float64bits(got.cost[i]) != math.Float64bits(want.cost[i]) {
				t.Fatalf("Complete(%d): cost[%d] = %v, Dijkstra %v", n, i, got.cost[i], want.cost[i])
			}
		}
		check(p, round)
		if n >= 2 {
			if err := p.Link("hw1", "hw2", 0.25); err != nil {
				t.Fatal(err)
			}
			if p.dist.Load() != nil {
				t.Fatalf("Complete(%d): Link kept the table", n)
			}
			check(p, round)
		}
		p.Distance("hw1", "hw1") // rebuild the table
		if err := p.AddNode(Node{Name: "extra"}); err != nil {
			t.Fatal(err)
		}
		if p.dist.Load() != nil {
			t.Fatalf("Complete(%d): AddNode kept the table", n)
		}
		check(p, round)
		if err := p.Link("extra", "hw1", 0.3); err != nil {
			t.Fatal(err)
		}
		check(p, round)
	}
}
