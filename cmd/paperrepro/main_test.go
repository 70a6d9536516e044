package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

func TestRunSingleArtifact(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "fig7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "{p1a,p8}") {
		t.Errorf("fig7 output wrong:\n%s", out.String())
	}
}

func TestRunTable1(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "p1        15   3    0   20   5") {
		t.Errorf("table1 output wrong:\n%s", out.String())
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "fig99"}, &out); err == nil {
		t.Error("unknown artifact accepted")
	}
}

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the default-flag run")

const goldenPath = "../../docs/paperrepro_output.txt"

// TestRunAllArtifacts pins the default-flag run byte for byte against the
// committed golden. The output is deterministic at every worker count, so
// any diff is a behaviour change; regenerate deliberately with
// `go test ./cmd/paperrepro -run TestRunAllArtifacts -update`.
func TestRunAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration is slow")
	}
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d vs %d lines", goldenPath, len(gl), len(wl))
	}
}
