package lsnuma

// Golden Result digests: the SHA-256 of the exported Result JSON of a
// fixed matrix of points is committed in testdata/golden_digests.txt.
// The matrix covers every workload and micro kernel under every protocol,
// the Figure 5 processor counts, compact directory formats at 32 CPUs, a
// lossy interconnect with finite buffers and retries, and the ablation
// corners. Any change to simulated behaviour — or to the directory
// storage, the schedulers or the exporter underneath it — shows up as a
// digest mismatch naming the point.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lsnuma/internal/workload/micro"
)

var updateGolden = flag.Bool("update", false, "rewrite "+goldenFile+" from the current Results")

const goldenFile = "testdata/golden_digests.txt"

// goldenPoint is one row of the digest matrix.
type goldenPoint struct {
	name string
	run  func() (*Result, error)
}

func goldenPoints() []goldenPoint {
	var pts []goldenPoint
	named := func(name string, cfg Config, w string) {
		pts = append(pts, goldenPoint{name, func() (*Result, error) { return Run(cfg, w, ScaleTest) }})
	}
	for _, w := range Workloads() {
		for _, p := range Protocols() {
			cfg := WorkloadConfig(w)
			cfg.Protocol = p
			named(fmt.Sprintf("workload/%s/%s", w, p), cfg, w)
		}
	}
	for _, nodes := range []int{16, 32} {
		for _, p := range Protocols() {
			cfg := DefaultConfig()
			cfg.Nodes = nodes
			cfg.Protocol = p
			named(fmt.Sprintf("scaling/cholesky-%dcpu/%s", nodes, p), cfg, "cholesky")
		}
	}
	for _, kind := range micro.Kinds() {
		for _, p := range Protocols() {
			cfg := DefaultConfig()
			cfg.Protocol = p
			pts = append(pts, goldenPoint{fmt.Sprintf("micro/%s/%s", kind, p), func() (*Result, error) {
				return RunWorkload(cfg, micro.New(kind, ScaleTest, cfg.Nodes), "test")
			}})
		}
	}
	for _, format := range []string{"limited:4", "coarse:8"} {
		cfg := DefaultConfig()
		cfg.Nodes = 32
		cfg.Protocol = LS
		cfg.DirFormat = format
		named("dirformat/mp3d-32cpu/"+format, cfg, "mp3d")
	}
	lossy := DefaultConfig()
	lossy.Protocol = LS
	lossy.DirMSHRs = 4
	lossy.Retry = "max:64,base:100,cap:4000,jitter:11"
	lossy.Faults = "drop-msg@0.01,dup-msg@0.005,reorder-msg@0.005:3"
	named("lossy/mp3d/LS", lossy, "mp3d")
	ablations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"relaxed-writes", func(c *Config) { c.Protocol = LS; c.RelaxedWrites = true }},
		{"software-exclusive", func(c *Config) { c.Protocol = EX }},
		{"false-sharing", func(c *Config) { c.Protocol = Baseline; c.TrackFalseSharing = true }},
		{"default-tagged", func(c *Config) { c.Protocol = LS; c.Variant.DefaultTagged = true }},
		{"hysteresis", func(c *Config) {
			c.Protocol = LS
			c.Variant.TagHysteresis = 2
			c.Variant.DetagHysteresis = 2
		}},
	}
	for _, a := range ablations {
		cfg := DefaultConfig()
		a.mutate(&cfg)
		named("ablation/mp3d/"+a.name, cfg, "mp3d")
	}
	return pts
}

// readGolden parses the digest file into name → digest.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with: go test -run TestGoldenDigests -update .)", err)
	}
	digests := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		digests[name] = sum
	}
	return digests
}

// TestGoldenDigests pins every point's exported Result to its committed
// digest. The digests change only when Results are meant to change; then
// bump engine.SchemaVersion (cached Results become stale) and rerun with
// -update.
func TestGoldenDigests(t *testing.T) {
	pts := goldenPoints()
	var want map[string]string
	if !*updateGolden {
		want = readGolden(t)
		if len(want) != len(pts) {
			t.Errorf("%s has %d points, the matrix %d; rerun with -update if the matrix changed on purpose",
				goldenFile, len(want), len(pts))
		}
	}
	got := make([]string, len(pts))
	t.Run("points", func(t *testing.T) {
		for i, pt := range pts {
			t.Run(pt.name, func(t *testing.T) {
				t.Parallel()
				res, err := pt.run()
				if err != nil {
					t.Fatal(err)
				}
				got[i] = fmt.Sprintf("%x", sha256.Sum256(exportJSON(t, res)))
				if w, ok := want[pt.name]; !*updateGolden && got[i] != w {
					if !ok {
						w = "missing"
					}
					t.Errorf("Result digest %s, golden %s. If Results are meant to change, bump "+
						"engine.SchemaVersion and rerun with -update (go test -run TestGoldenDigests -update .)",
						got[i], w)
				}
			})
		}
	})
	if !*updateGolden || t.Failed() {
		return
	}
	var buf bytes.Buffer
	buf.WriteString("# SHA-256 of each point's exported Result JSON (TestGoldenDigests).\n")
	buf.WriteString("# Regenerate only with -update, together with an engine.SchemaVersion bump.\n")
	for i, pt := range pts {
		fmt.Fprintf(&buf, "%s  %s\n", got[i], pt.name)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
