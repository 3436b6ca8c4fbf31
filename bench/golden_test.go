package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lsnuma"
)

func testResults(t *testing.T) map[lsnuma.Protocol]*lsnuma.Result {
	t.Helper()
	cfg := robustConfig("mp3d")
	cfg.Check = lsnuma.CheckOff
	rs, err := lsnuma.Compare(cfg, "mp3d", lsnuma.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// lossy returns r as a lossy run may report it: more traffic and
// resilience activity, nothing else changed.
func lossy(r *lsnuma.Result) *lsnuma.Result {
	c := *r
	c.Msgs += 17
	c.Bytes += 1700
	c.ClassMsgs[1] += 17
	c.ClassBytes[1] += 1700
	c.Resil.DroppedMsgs, c.Resil.TimeoutResends, c.Resil.Retries = 9, 9, 12
	return &c
}

func TestCheckRobust(t *testing.T) {
	rs := testResults(t)
	want := map[string]string{}
	out := lsnuma.ComparisonJSON{Workload: "mp3d", Results: map[string]*lsnuma.Result{}}
	for p, r := range rs {
		d, err := digestResult(stripLossy(r))
		if err != nil {
			t.Fatal(err)
		}
		want["mp3d/"+string(p)] = d
		out.Results[string(p)] = lossy(r)
	}
	encode := func() []byte {
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := checkRobust(encode(), "mp3d", want); err != nil {
		t.Fatalf("lossy run with only traffic and resilience changes rejected: %v", err)
	}
	shifted := *out.Results["LS"]
	shifted.ExecTime++
	out.Results["LS"] = &shifted
	if _, err := checkRobust(encode(), "mp3d", want); err == nil || !strings.Contains(err.Error(), "mp3d/LS") {
		t.Fatalf("timeline change not caught: %v", err)
	}
}

// TestTamperedGoldenRaisesErrorFrac runs a CLI workload's loop over a
// stand-in binary (cat of a Result file) and shows a wrong golden turns
// every operation into a failure instead of aborting the run.
func TestTamperedGoldenRaisesErrorFrac(t *testing.T) {
	cat, err := exec.LookPath("cat")
	if err != nil {
		t.Skip("no cat on PATH")
	}
	res := testResults(t)[lsnuma.LS]
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "result.json")
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := digestResult(res)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Repeat("0", len(good))
	errFrac := func(want string) float64 {
		w := &cliWorkload{bin: filepath.Base(cat), pass: func(int64, int) []command {
			return []command{{name: "point", args: []string{file}, check: checkResult(want)}}
		}}
		// Traced loops skip the `-version` start-up timing, which cat
		// does not support.
		e := &env{binDir: filepath.Dir(cat), workload: "test", trace: true}
		r := w.loop(context.Background(), e, 0, false)
		return float64(r.failed) / float64(r.attempted)
	}
	if f := errFrac(good); f != 0 {
		t.Errorf("error_frac with the right golden = %v, want 0", f)
	}
	if f := errFrac(bad); f != 1 {
		t.Errorf("error_frac with a tampered golden = %v, want 1", f)
	}
}

func TestPaperSlices(t *testing.T) {
	ref, err := os.ReadFile("../results_paper.txt")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := paperSlices(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(parts, nil); !bytes.Equal(got, ref) {
		t.Fatal("slices do not reassemble results_paper.txt")
	}
	for i, a := range paperArtifacts {
		if !bytes.HasPrefix(parts[i], []byte(a.header)) {
			t.Errorf("%s slice starts %q", a.name, parts[i][:min(len(parts[i]), 30)])
		}
	}
	if _, err := paperSlices(bytes.Replace(ref, []byte("Table 3:"), []byte("Tabel 3:"), 1)); err == nil {
		t.Error("a missing section was not reported")
	}
}

// TestDaemonKeySpace pins the daemon's request space: the oltp/nodes
// points no other sweep shares are cold, everything else is warm and
// reachable through the 15 requested sweeps.
func TestDaemonKeySpace(t *testing.T) {
	g, err := loadGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	in, err := daemonInputs(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.points)+len(in.cold) != len(g.Points) || len(in.cold) != 12 || len(in.sweeps) != 15 {
		t.Fatalf("%d warm + %d cold points of %d, %d sweeps; want 12 cold and 15 sweeps",
			len(in.points), len(in.cold), len(g.Points), len(in.sweeps))
	}
	for _, c := range in.cold {
		if !strings.HasPrefix(c.name, "oltp/nodes=") || strings.HasPrefix(c.name, "oltp/nodes=4/") {
			t.Errorf("unexpected cold point %s", c.name)
		}
	}
}
