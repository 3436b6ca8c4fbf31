package main

import (
	"os"
	"testing"
	"time"
)

func TestBucketTraces(t *testing.T) {
	for _, tc := range []struct {
		parkLayer string
		want      map[string]time.Duration
	}{
		{"engine.handoff", map[string]time.Duration{
			"cache":          30 * time.Millisecond,
			"engine":         20 * time.Millisecond,
			"engine.handoff": 70 * time.Millisecond, // channel send under engine + parked scheduler
			"gc":             40 * time.Millisecond,
			"resultcache":    50 * time.Millisecond,
			"server":         1170 * time.Millisecond, // handler frame + HTTP connection loop
			"runtime":        80 * time.Millisecond,
			"main":           90 * time.Millisecond,
			"journal":        100 * time.Millisecond,
			"check":          110 * time.Millisecond,
		}},
		{"runtime", map[string]time.Duration{
			"cache":          30 * time.Millisecond,
			"engine":         20 * time.Millisecond,
			"engine.handoff": 10 * time.Millisecond,
			"gc":             40 * time.Millisecond,
			"resultcache":    50 * time.Millisecond,
			"server":         1170 * time.Millisecond,
			"runtime":        140 * time.Millisecond,
			"main":           90 * time.Millisecond,
			"journal":        100 * time.Millisecond,
			"check":          110 * time.Millisecond,
		}},
	} {
		f, err := os.Open("testdata/traces.txt")
		if err != nil {
			t.Fatal(err)
		}
		got, err := bucketTraces(f, tc.parkLayer)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Errorf("parkLayer=%s: got layers %v, want %v", tc.parkLayer, got, tc.want)
		}
		for l, d := range tc.want {
			if got[l] != d {
				t.Errorf("parkLayer=%s: %s = %v, want %v", tc.parkLayer, l, got[l], d)
			}
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"lsnuma/internal/engine.(*Machine).Run":                  "lsnuma/internal/engine",
		"lsnuma/internal/engine.opBefore":                        "lsnuma/internal/engine",
		"lsnuma.runMachine":                                      "lsnuma",
		"main.main":                                              "main",
		"lsnuma/internal/workload/lu.(*LU).Programs.func1":       "lsnuma/internal/workload/lu",
		"lsnuma/internal/resultcache.(*Flight[go.shape.int]).Do": "lsnuma/internal/resultcache",
		"lsnuma/internal/server/journal.(*Journal).Append":       "lsnuma/internal/server/journal",
		"lsnuma/internal/directory.Bitset.Has":                   "lsnuma/internal/directory",
		"net/http.(*conn).serve":                                 "net/http",
		"runtime.gcBgMarkWorker":                                 "runtime",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
