package lsnuma

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCLISurface builds the five binaries and pins their command-line
// surface: each -h lists exactly the flags below; a bad machine-flag or
// -scale value, an unknown artifact or a flag the run would ignore
// (lssim -figure without -protocol all) fails before any simulation, with
// a non-zero exit, nothing on stdout and a single line on stderr;
// lssim -regions prints a region block per protocol; and the profile
// flags write their profiles.
func TestCLISurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in -short")
	}
	want := map[string]string{
		"lssim": "block blockprofile check cpuprofile default-tagged detag-hysteresis dirformat falseshare faults " +
			"figure json keep-on-write-miss l1 l2 memprofile mshrs mutexprofile nodes protocol regions retry scale " +
			"scheduler tag-hysteresis version workload",
		"lssweep": "cache cache-dir check cpus dirformat faults j mshrs no-cache point-timeout retry scale scheduler " +
			"sweep timeout version workload",
		"lsreport": "ablations all blockprofile cache cache-dir check cpuprofile dirformat faults fig j memprofile " +
			"mshrs mutexprofile no-cache point-timeout retry scale scheduler table timeout version",
		"lstrace": "capture check dirformat faults info o protocol replay scale scheduler version workload",
		"lsnumad": "addr cache cache-dir drain-timeout j jobs no-cache point-timeout pprof-addr quantum queue " +
			"state-dir version",
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for tool := range want {
		args = append(args, "lsnuma/cmd/"+tool)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	flagLine := regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)
	for tool, names := range want {
		out, err := exec.Command(filepath.Join(dir, tool), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v", tool, err)
		}
		var got []string
		for _, m := range flagLine.FindAllSubmatch(out, -1) {
			got = append(got, string(m[1]))
		}
		slices.Sort(got)
		if strings.Join(got, " ") != names {
			t.Errorf("%s flags:\ngot:  %s\nwant: %s", tool, strings.Join(got, " "), names)
		}
	}

	bad := [][]string{
		{"lsreport", "-all", "-dirformat", "limited:0"},
		{"lsreport", "-fig", "3", "-table", "9"},
		{"lssweep", "-retry", "max:banana"},
		{"lssim", "-check", "extreme"},
		{"lssweep", "-scale", "huge"},
		{"lssim", "-figure", "-protocol", "LS"},
	}
	for _, b := range bad {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, b[0]), b[1:]...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("%v: want a non-zero exit, got %v", b, err)
		}
		if stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: want empty stdout and one stderr line, got stdout %q, stderr %q", b, stdout.String(), stderr.String())
		}
	}

	// Under the default -protocol all, -regions prints each protocol's
	// region block after its result.
	out, err := exec.Command(filepath.Join(dir, "lssim"), "-regions", "-workload", "oltp").Output()
	if err != nil {
		t.Fatalf("lssim -regions: %v", err)
	}
	if n, want := strings.Count(string(out), "region coverage"), len(Protocols()); n != want {
		t.Errorf("lssim -regions printed %d region blocks, want %d:\n%s", n, want, out)
	}

	// The profile rows write their profiles when the run ends.
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if out, err := exec.Command(filepath.Join(dir, "lssim"), "-protocol", "LS",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput(); err != nil {
		t.Fatalf("lssim with profiles: %v\n%s", err, out)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: want a non-empty file (stat: %v)", f, err)
		}
	}

	// Text output is deterministic: run twice, each command prints the
	// same bytes. Under LS, oltp has regions tied on load-store writes,
	// so the first command also pins the order of tied rows.
	repeat := [][]string{
		{"lssim", "-protocol", "LS", "-regions", "-workload", "oltp"},
		{"lssim", "-figure"},
		{"lsreport", "-fig", "3"},
		{"lssweep", "-workload", "mp3d", "-sweep", "block"},
	}
	for _, r := range repeat {
		var outs [2][]byte
		for i := range outs {
			out, err := exec.Command(filepath.Join(dir, r[0]), r[1:]...).Output()
			if err != nil {
				t.Fatalf("%v: %v", r, err)
			}
			outs[i] = out
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Errorf("%v: two runs printed different output:\n%s\n---\n%s", r, outs[0], outs[1])
		}
	}
}
