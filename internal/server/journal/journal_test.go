package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestJournalRoundTrip: append → state flips → progress survive a
// close/reopen cycle, the finished jobs are reported until then but do
// not survive it, and the replay set is exactly the live records in
// submission order.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().UTC().Add(-time.Minute)
	for i, st := range []State{StateDone, StateRunning, StateQueued, StateFailed} {
		id := fmt.Sprintf("job-%d", i)
		rec := Record{
			ID:        id,
			Endpoint:  "sweep",
			Tenant:    "t1",
			Request:   []byte(`{"workload":"counter"}`),
			Points:    12,
			Submitted: base.Add(time.Duration(i) * time.Second),
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if st == StateQueued {
			continue
		}
		if err := j.SetState(id, StateRunning, ""); err != nil {
			t.Fatal(err)
		}
		if err := j.SetProgress(id, 5); err != nil {
			t.Fatal(err)
		}
		if err := j.SetProgress(id, 3); err != nil { // regression ignored
			t.Fatal(err)
		}
		if st == StateRunning {
			continue
		}
		msg := ""
		if st == StateFailed {
			msg = "2 of 12 points failed"
		}
		if err := j.SetState(id, st, msg); err != nil {
			t.Fatal(err)
		}
	}

	fail, _ := j.Get("job-3")
	if fail.State != StateFailed || fail.Error != "2 of 12 points failed" {
		t.Fatalf("job-3 = %+v, want failed with error message", fail)
	}

	// Reopen: the on-disk records are the source of truth, and only the
	// live jobs have one.
	j2, err := Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if n := j2.CorruptRecords(); n != 0 {
		t.Fatalf("CorruptRecords = %d, want 0", n)
	}
	if got := len(j2.List()); got != 2 {
		t.Fatalf("List = %d records, want the 2 live ones", got)
	}
	rec, ok := j2.Get("job-1")
	if !ok {
		t.Fatal("job-1 missing after reopen")
	}
	if rec.State != StateRunning || rec.Completed != 5 || rec.Attempts != 1 {
		t.Fatalf("job-1 = %+v, want running/completed=5/attempts=1", rec)
	}
	if rec.Tenant != "t1" || rec.Points != 12 || string(rec.Request) != `{"workload":"counter"}` {
		t.Fatalf("job-1 payload lost: %+v", rec)
	}
	inc := j2.Incomplete()
	if len(inc) != 2 || inc[0].ID != "job-1" || inc[1].ID != "job-2" {
		ids := make([]string, len(inc))
		for i, r := range inc {
			ids[i] = r.ID + ":" + string(r.State)
		}
		t.Fatalf("Incomplete = %v, want [job-1:running job-2:queued]", ids)
	}

	// A second running flip (post-crash replay) bumps Attempts.
	if err := j2.SetState("job-1", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	rec, _ = j2.Get("job-1")
	if rec.Attempts != 2 {
		t.Fatalf("Attempts after replay flip = %d, want 2", rec.Attempts)
	}
}

// TestJournalCorruptionTolerance: truncated and garbage record files —
// the debris a crash mid-write or a stray editor leaves behind — are
// skipped with a warning and counted, never fatal, and never shadow the
// valid records beside them.
func TestJournalCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{ID: "good", Endpoint: "sweep", Request: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}

	jobs := filepath.Join(dir, "jobs")
	// Truncated JSON (torn write without the fsync discipline).
	good, err := os.ReadFile(filepath.Join(jobs, "good.json"))
	if err != nil {
		t.Fatal(err)
	}
	writeFile := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(jobs, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("torn.json", good[:len(good)/2])
	// Outright garbage.
	writeFile("garbage.json", []byte("\x00\x01not json at all"))
	// Valid JSON, invalid state.
	writeFile("badstate.json", []byte(`{"id":"badstate","state":"sideways","request":{},"submitted":"2026-01-01T00:00:00Z","updated":"2026-01-01T00:00:00Z"}`))
	// Valid record whose file name does not match its id.
	renamed := strings.Replace(string(good), `"good"`, `"other"`, 1)
	writeFile("mismatch.json", []byte(renamed))
	// Staged-write debris: silently removed, not counted as corrupt.
	writeFile("good.tmp123", []byte("partial"))

	var warnings []string
	j2, err := Open(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatalf("Open over corrupt records: %v (must skip, not fail)", err)
	}
	if n := j2.CorruptRecords(); n != 4 {
		t.Fatalf("CorruptRecords = %d, want 4 (torn, garbage, badstate, mismatch); warnings: %v", n, warnings)
	}
	if len(warnings) != 4 {
		t.Fatalf("warnings = %d %v, want 4", len(warnings), warnings)
	}
	if _, ok := j2.Get("good"); !ok {
		t.Fatal("valid record lost among corrupt neighbors")
	}
	if got := len(j2.List()); got != 1 {
		t.Fatalf("List = %d records, want just the valid one", got)
	}
	if _, err := os.Stat(filepath.Join(jobs, "good.tmp123")); !os.IsNotExist(err) {
		t.Fatalf("temp debris not cleaned up: %v", err)
	}
}

// TestJournalRejectsBadIDs: ids that could escape the jobs directory or
// collide with temp files are refused at the write side.
func TestJournalRejectsBadIDs(t *testing.T) {
	j, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../escape", "a/b", "x y", strings.Repeat("a", 65)} {
		if err := j.Append(Record{ID: id, Request: []byte(`{}`)}); err == nil {
			t.Errorf("Append(%q) accepted, want error", id)
		}
	}
	if err := j.Append(Record{ID: "ok-1", Request: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{ID: "ok-1", Request: []byte(`{}`)}); err == nil {
		t.Error("duplicate Append accepted, want error")
	}
	if err := j.SetState("ghost", StateRunning, ""); err == nil {
		t.Error("SetState on unknown job accepted, want error")
	}
	if err := j.SetProgress("ghost", 1); err == nil {
		t.Error("SetProgress on unknown job accepted, want error")
	}
}

// TestFinishedJobsLeaveTheDisk: a finished job's record file goes when
// the job finishes, and the journal reports only the live jobs plus the
// last 1,024 finished ones, so neither the state directory nor the index
// grows with the jobs a long-running daemon serves. A reopened journal
// holds only the live jobs, even beside finished records an older daemon
// left.
func TestFinishedJobsLeaveTheDisk(t *testing.T) {
	const (
		finished = 1024 + 6
		live     = 3
	)
	dir := t.TempDir()
	j, err := Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().UTC().Add(-time.Hour)
	id := func(i int) string { return fmt.Sprintf("job-%04d", i) }
	for i := 0; i < finished+live; i++ {
		rec := Record{ID: id(i), Endpoint: "point", Request: []byte(`{}`), Points: 1,
			Submitted: base.Add(time.Duration(i) * time.Millisecond)}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == finished {
			continue // the first live job stays queued
		}
		if err := j.SetState(id(i), StateRunning, ""); err != nil {
			t.Fatal(err)
		}
		if i > finished {
			continue // the other live jobs stay running
		}
		state, msg := StateDone, ""
		if i%2 == 1 {
			state, msg = StateFailed, "1 of 1 points failed"
		}
		if err := j.SetState(id(i), state, msg); err != nil {
			t.Fatal(err)
		}
	}
	wantLive := []string{id(finished), id(finished + 1), id(finished + 2)}

	// The state directory holds exactly the live records.
	jobFiles := func() []string {
		entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range entries {
			files = append(files, e.Name())
		}
		return files
	}
	wantFiles := []string{wantLive[0] + ".json", wantLive[1] + ".json", wantLive[2] + ".json"}
	if files := jobFiles(); !slices.Equal(files, wantFiles) {
		t.Fatalf("jobs/ holds %d files (%v ...), want only the live %v", len(files), files[:min(3, len(files))], wantFiles)
	}

	// List and Get report the live jobs plus the last 1,024 finished.
	var want []string
	for i := finished - 1024; i < finished+live; i++ {
		want = append(want, id(i))
	}
	var got []string
	for _, rec := range j.List() {
		got = append(got, rec.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("List = %d records from %s, want %d from %s", len(got), got[0], len(want), want[0])
	}
	for i := finished - 1024; i < finished; i++ {
		rec, ok := j.Get(id(i))
		wantState, wantErr := StateDone, ""
		if i%2 == 1 {
			wantState, wantErr = StateFailed, "1 of 1 points failed"
		}
		if !ok || rec.State != wantState || rec.Error != wantErr || rec.Attempts != 1 {
			t.Fatalf("Get(%s) = %+v, %v; want %s %q", id(i), rec, ok, wantState, wantErr)
		}
	}
	// The oldest finished jobs are no longer reported.
	for i := 0; i < finished-1024; i++ {
		if rec, ok := j.Get(id(i)); ok {
			t.Fatalf("evicted job still reported: %+v", rec)
		}
	}
	// A finished job takes no further writes.
	if err := j.SetProgress(id(finished-1), 1); err == nil {
		t.Error("SetProgress on a finished job accepted, want error")
	}
	if err := j.SetState(id(finished-1), StateRunning, ""); err == nil {
		t.Error("SetState on a finished job accepted, want error")
	}

	// A reopened journal lists only the live jobs, in their states, and
	// removes the done and failed records an older daemon kept on disk.
	for _, st := range []State{StateDone, StateFailed} {
		old := fmt.Sprintf(`{"id":"old-%s","endpoint":"point","request":{},"state":"%s","submitted":"2026-01-01T00:00:00Z","updated":"2026-01-01T00:00:00Z"}`, st, st)
		if err := os.WriteFile(filepath.Join(dir, "jobs", "old-"+string(st)+".json"), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j2, err := Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, rec := range j2.List() {
		got = append(got, rec.ID+":"+string(rec.State))
	}
	if want := []string{wantLive[0] + ":queued", wantLive[1] + ":running", wantLive[2] + ":running"}; !slices.Equal(got, want) {
		t.Fatalf("reopened List = %v, want %v", got, want)
	}
	if files := jobFiles(); !slices.Equal(files, wantFiles) {
		t.Fatalf("jobs/ after reopen = %v, want only the live %v", files, wantFiles)
	}
}
