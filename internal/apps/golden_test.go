package apps

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/tracer"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_traces.txt from the current builders")

const goldenFile = "testdata/golden_traces.txt"

// goldenLines computes the pinned lines: for every registry app at 8
// ranks and 4 chunks, the digests of the three served flavors and the JSON
// of the served pattern statistics; for cg, the overlapped flavors under
// WithChunks(2); for sweep3d, an OverlapSelective trace with one buffer
// idealized. Each line is "<case> <what> <value>".
func goldenLines(t *testing.T) []string {
	t.Helper()
	const ranks = 8
	var lines []string
	digest := func(name, what string, tr *trace.Trace) {
		d, err := trace.Digest(tr)
		if err != nil {
			t.Fatalf("%s %s: %v", name, what, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", name, what, d))
	}
	for _, name := range Names {
		e, _ := ByName(name, ranks)
		run, err := tracer.Trace(name, ranks, tracer.DefaultConfig(), e.App.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.AnalyzeRun(context.Background(), nil, run, network.TestbedFor(name, ranks).Platform())
		if err != nil {
			t.Fatal(err)
		}
		w, err := rep.Wire()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range w.Flavors {
			lines = append(lines, fmt.Sprintf("%s %s %s", name, f.Flavor, f.TraceDigest))
		}
		pj, err := json.Marshal(w.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s patterns %s", name, pj))
		switch name {
		case "cg":
			v := run.WithChunks(2)
			digest(name+"/chunks=2", "overlap-real", v.OverlapReal())
			digest(name+"/chunks=2", "overlap-ideal", v.OverlapIdeal())
		case "sweep3d":
			digest(name+"/selective", "outflow-east", run.OverlapSelective(map[string]bool{"outflow-east": true}))
		}
	}
	return lines
}

// TestGoldenTraceBytes pins the bytes the tracer's builders and the
// pattern analyzer produce for the whole registry, so a change to the
// event-log layout or the builders cannot silently move a served digest
// or statistic. Regenerate with `go test ./internal/apps -run Golden
// -update` only when a change is meant to alter them.
func TestGoldenTraceBytes(t *testing.T) {
	got := goldenLines(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("golden line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
