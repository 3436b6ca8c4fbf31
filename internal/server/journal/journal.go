// Package journal is the lsnumad daemon's crash-durable job log: every
// accepted job is write-ahead-logged as one record file under a state
// directory before it runs, moves from queued to running with fsync'd
// state flips, and a restart replays whatever was left queued or
// running. Together with the content-addressed result cache (each
// completed sweep cell is durable by PointKey) this makes a SIGKILL
// mid-sweep cost only the points that were literally in flight: the
// replayed job re-reads everything already computed and finishes the
// rest.
//
// The directory holds only live jobs. When a job finishes, done or
// failed, its record file is removed (a finished job has nothing left
// to replay) and the record moves to an in-memory history of the last
// 1,024 finished jobs, which Get and List still report. So the state
// directory and the index stay bounded however long the daemon runs.
//
// Records are written with the same discipline as the result cache:
// staged in a temp file, renamed into place (atomic on POSIX), fsync'd
// before the rename on state transitions so a torn write can never
// masquerade as a valid record. The read side is correspondingly
// forgiving — a truncated, garbage or foreign file in the state
// directory is skipped with a warning and counted, never fatal.
package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's position in its lifecycle.
type State string

const (
	// StateQueued: accepted and journaled, waiting for an execution
	// slot. A crash (or a drain that bounced the waiter) leaves the
	// record here, and the next startup replays it.
	StateQueued State = "queued"
	// StateRunning: holding an execution slot. A crash mid-run leaves
	// the record here; the next startup replays it, re-reading every
	// already-durable point from the result cache.
	StateRunning State = "running"
	// StateDone: ran to completion with zero failed points. Terminal.
	StateDone State = "done"
	// StateFailed: ran to completion with failed points, or proved
	// unreplayable. Terminal — failures are deterministic, so replaying
	// them would only fail again.
	StateFailed State = "failed"
)

// maxFinished is how many finished records the journal keeps in memory
// for Get and List once their files are gone.
const maxFinished = 1024

// Terminal reports whether a state is final (never replayed).
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

func validState(s State) bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed:
		return true
	}
	return false
}

// Record is one journaled job.
type Record struct {
	// ID is the daemon-assigned job identifier ([A-Za-z0-9._-]+; it
	// doubles as the record's file name).
	ID string `json:"id"`
	// Endpoint is the job kind: "point", "sweep" or "compare".
	Endpoint string `json:"endpoint"`
	// Tenant is the admission bucket the job was accepted under.
	Tenant string `json:"tenant,omitempty"`
	// Request is the canonical JSON of the client's JobRequest —
	// everything needed to rebuild and replay the job.
	Request json.RawMessage `json:"request"`
	// State is the job's lifecycle position.
	State State `json:"state"`
	// Points is the job's total point count; Completed is the
	// completion cursor (points finished so far, across restarts the
	// current attempt's count — completed cells are durable in the
	// result cache either way).
	Points    int `json:"points,omitempty"`
	Completed int `json:"completed,omitempty"`
	// Attempts counts queued→running transitions: 1 for a normal run,
	// +1 per post-crash replay.
	Attempts int `json:"attempts,omitempty"`
	// Submitted and Updated timestamp acceptance and the last flip.
	Submitted time.Time `json:"submitted"`
	Updated   time.Time `json:"updated"`
	// Error describes a failed job.
	Error string `json:"error,omitempty"`
}

// idPattern bounds record IDs to file-name-safe tokens.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Journal is the on-disk job log plus its in-memory index. Safe for
// concurrent use by any number of goroutines; the directory belongs to
// one daemon process at a time.
type Journal struct {
	dir     string // the jobs/ directory
	warnf   func(format string, args ...any)
	corrupt atomic.Uint64

	mu   sync.Mutex
	recs map[string]*Record // live records plus the finished history
	// finished is the history's ring of IDs: once it is full, next
	// points at the oldest, which the next finished job evicts.
	finished [maxFinished]string
	next     int
}

// Open loads (creating if needed) the journal under dir. Corrupt or
// foreign record files are skipped with a warning through warnf (nil =
// silent) and counted (CorruptRecords); leftover temp files from a
// crashed writer are removed silently — an unrenamed temp file is a
// write that never happened. Done and failed records, which older
// daemons kept on disk, are removed: the opened journal holds only live
// jobs, and its finished history starts empty.
func Open(dir string, warnf func(format string, args ...any)) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("journal: empty state directory")
	}
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	jobs := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: jobs, warnf: warnf, recs: make(map[string]*Record)}
	entries, err := os.ReadDir(jobs)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(jobs, name)) // crash debris from a staged write
			continue
		}
		rec, err := readRecord(filepath.Join(jobs, name))
		if err != nil {
			j.corrupt.Add(1)
			warnf("journal: skipping corrupt record %s: %v", name, err)
			continue
		}
		if name != rec.ID+".json" {
			j.corrupt.Add(1)
			warnf("journal: skipping record %s: file name does not match job id %q", name, rec.ID)
			continue
		}
		if rec.State.Terminal() {
			if err := os.Remove(filepath.Join(jobs, name)); err != nil {
				warnf("journal: cannot remove finished record %s: %v", name, err)
			}
			removed = true
			continue
		}
		j.recs[rec.ID] = rec
	}
	if removed {
		syncDir(jobs)
	}
	return j, nil
}

func readRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	if !idPattern.MatchString(rec.ID) {
		return nil, fmt.Errorf("invalid job id %q", rec.ID)
	}
	if !validState(rec.State) {
		return nil, fmt.Errorf("invalid state %q", rec.State)
	}
	return &rec, nil
}

// CorruptRecords returns how many record files this process skipped as
// corrupt (at Open time).
func (j *Journal) CorruptRecords() uint64 { return j.corrupt.Load() }

// Append write-ahead-logs a newly accepted job: the record enters the
// journal as queued with an fsync'd write, before the job may run.
func (j *Journal) Append(rec Record) error {
	if !idPattern.MatchString(rec.ID) {
		return fmt.Errorf("journal: invalid job id %q", rec.ID)
	}
	now := time.Now().UTC()
	rec.State = StateQueued
	if rec.Submitted.IsZero() {
		rec.Submitted = now
	}
	rec.Updated = now
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.recs[rec.ID]; dup {
		return fmt.Errorf("journal: duplicate job id %q", rec.ID)
	}
	if err := j.persistLocked(&rec, true); err != nil {
		return err
	}
	j.recs[rec.ID] = &rec
	return nil
}

// SetState flips a live job's lifecycle state. Flipping to running bumps
// Attempts and is an fsync'd write. Flipping to done or failed finishes
// the job: its record file is removed, with a directory fsync, and the
// record joins the finished history, evicting the oldest finished
// record once the history holds 1,024. errMsg annotates failures. A
// removal that fails is reported; the job is finished in memory anyway.
func (j *Journal) SetState(id string, st State, errMsg string) error {
	if !validState(st) {
		return fmt.Errorf("journal: invalid state %q", st)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[id]
	if !ok || rec.State.Terminal() {
		return fmt.Errorf("journal: no live job %q", id)
	}
	rec.State = st
	rec.Updated = time.Now().UTC()
	if st == StateRunning {
		rec.Attempts++
	}
	if errMsg != "" {
		rec.Error = errMsg
	}
	if !st.Terminal() {
		return j.persistLocked(rec, true)
	}
	if old := j.finished[j.next]; old != "" {
		delete(j.recs, old)
	}
	j.finished[j.next] = id
	j.next = (j.next + 1) % maxFinished
	if err := os.Remove(filepath.Join(j.dir, id+".json")); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	syncDir(j.dir)
	return nil
}

// SetProgress advances a job's completion cursor. Regressions are
// ignored (concurrent point completions may arrive out of order). The
// write is atomic but not fsync'd: the cursor is advisory — the truth
// about completed points lives in the content-addressed result cache.
func (j *Journal) SetProgress(id string, completed int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[id]
	if !ok || rec.State.Terminal() {
		return fmt.Errorf("journal: no live job %q", id)
	}
	if completed <= rec.Completed {
		return nil
	}
	rec.Completed = completed
	rec.Updated = time.Now().UTC()
	return j.persistLocked(rec, false)
}

// Get returns a copy of the record for id.
func (j *Journal) Get(id string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[id]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// List returns copies of the live records and the finished history,
// oldest submission first.
func (j *Journal) List() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.recs))
	for _, rec := range j.recs {
		out = append(out, *rec)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Submitted.Equal(out[b].Submitted) {
			return out[a].Submitted.Before(out[b].Submitted)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Incomplete returns the queued and running records (oldest first) —
// the replay set after a restart.
func (j *Journal) Incomplete() []Record {
	all := j.List()
	out := all[:0]
	for _, rec := range all {
		if !rec.State.Terminal() {
			out = append(out, rec)
		}
	}
	return out
}

// persistLocked writes rec to its record file: staged in a temp file
// (fsync'd when sync — state flips must survive power loss; cursor
// bumps need not), renamed into place. j.mu held.
func (j *Journal) persistLocked(rec *Record, sync bool) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	data = append(data, '\n')
	path := filepath.Join(j.dir, rec.ID+".json")
	tmp, err := os.CreateTemp(j.dir, rec.ID+".tmp*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("journal: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if sync {
		syncDir(j.dir) // so the rename itself is durable
	}
	return nil
}

// syncDir fsyncs a directory, best effort, so the renames and removals
// in it are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
