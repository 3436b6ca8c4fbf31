package cli

import (
	"flag"
	"testing"

	"lsnuma"
)

// TestApply: each machine row sets its own Config field, and only the
// bound rows touch the configuration.
func TestApply(t *testing.T) {
	f := New(flag.NewFlagSet("t", flag.ContinueOnError), "t", Machine)
	f.Parse([]string{"-check", "full", "-faults", "drop-msg@0.1", "-mshrs", "4",
		"-retry", "max:8", "-scheduler", "serial", "-dirformat", "coarse:2"})
	want := lsnuma.OLTPConfig()
	want.Check, want.Faults, want.DirMSHRs = lsnuma.CheckFull, "drop-msg@0.1", 4
	want.Retry, want.Scheduler, want.DirFormat = "max:8", "serial", "coarse:2"
	if got := f.Apply(lsnuma.OLTPConfig()); got != want {
		t.Errorf("Apply = %+v\nwant   %+v", got, want)
	}

	f = New(flag.NewFlagSet("t", flag.ContinueOnError), "t", []string{"check"})
	f.Parse(nil)
	base := lsnuma.DefaultConfig()
	base.Faults, base.DirMSHRs = "drop-msg@0.1", 4
	want = base
	want.Check = lsnuma.CheckOff
	if got := f.Apply(base); got != want {
		t.Errorf("Apply with only -check bound = %+v\nwant   %+v", got, want)
	}
}

// TestOpenCache: the cache rows open a cache only with -cache or
// -cache-dir, and -no-cache overrides both.
func TestOpenCache(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		open bool
	}{
		{nil, false},
		{[]string{"-cache-dir", dir}, true},
		{[]string{"-cache-dir", dir, "-no-cache"}, false},
	} {
		f := New(flag.NewFlagSet("t", flag.ContinueOnError), "t", Cache)
		f.Parse(tc.args)
		c, err := f.OpenCache()
		if err != nil {
			t.Fatal(err)
		}
		if (c != nil) != tc.open {
			t.Errorf("%v: cache opened = %v, want %v", tc.args, c != nil, tc.open)
		}
	}
}
