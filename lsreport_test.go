package lsnuma

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLsreportAllMatchesResults builds lsreport and regenerates every
// paper artifact at test scale: the output must match the committed
// results_test.txt byte for byte, the file EXPERIMENTS.md's test-scale
// numbers come from. The run starts from an empty result cache, so its
// cache line shows that each of the 29 distinct points simulated once,
// though the artifacts use points 39 times.
func TestLsreportAllMatchesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs lsreport; skipped in -short")
	}
	want, err := os.ReadFile("results_test.txt")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "lsreport")
	if out, err := exec.Command("go", "build", "-o", bin, "lsnuma/cmd/lsreport").CombinedOutput(); err != nil {
		t.Fatalf("go build lsreport: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-all", "-scale", "test", "-cache-dir", filepath.Join(t.TempDir(), "cache"))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("lsreport -all -scale test: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "lsreport: cache hits=0 misses=29 ") {
		t.Errorf("a cold run must simulate each distinct point once, got stderr:\n%s", stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("lsreport -all -scale test differs from results_test.txt at line %d:\ngot:  %s\nwant: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("lsreport -all -scale test: %d lines, results_test.txt has %d", len(gotLines), len(wantLines))
	}
}
