package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// spec is the part of BENCHMARK.json lsbench reads: the workload names
// and every metric's unit, direction and regression bound. It is the one
// place metrics are defined; lsbench refuses to print a run whose
// metrics do not match it.
type spec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening as a share of the base median
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the metric list a run reports: end-to-end without
// tracing, per-layer with it.
func (s *spec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric is one measured value. N is the number of samples behind it
// (operations for a timing, 0 for a single reading or a count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// host records what a run's numbers depend on besides the code.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() host {
	return host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// record is one run of one workload, as written by -out and read by -base.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   int               `json:"seconds"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds readings printed beside the metrics that BENCHMARK.json
	// does not list (for example the model and profile seconds behind a
	// model ratio).
	Extra map[string]metric `json:"extra,omitempty"`
}

// selectMetrics keeps exactly the metrics the spec lists for the run's
// mode and moves everything else measured into Extra. A listed metric
// that was not measured, or whose unit differs from the spec, is an error
// in lsbench, not in the program under test.
func (r *record) selectMetrics(s *spec, all map[string]metric) error {
	r.Metrics = make(map[string]metric)
	r.Extra = make(map[string]metric)
	for k, v := range all {
		r.Extra[k] = v
	}
	for _, ms := range s.metrics(r.Trace) {
		v, ok := all[ms.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", r.Workload, ms.Name)
		}
		if v.Unit != ms.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", ms.Name, v.Unit, ms.Unit)
		}
		r.Metrics[ms.Name] = v
		delete(r.Extra, ms.Name)
	}
	return nil
}

// print writes the human-readable form of a run: every metric by name,
// with its unit and sample count.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v seconds=%d num_cpu=%d gomaxprocs=%d go=%s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.Go)
	printMetrics(w, r.Metrics)
	if len(r.Extra) > 0 {
		fmt.Fprintln(w, "  also measured:")
		printMetrics(w, r.Extra)
	}
	errFrac := 0.0
	if r.Attempted > 0 {
		errFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d error_frac=%.4g\n", r.Correct, r.Attempted, r.Failed, errFrac)
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
}

// resultLine is the one-line JSON summary printed last.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine builds the last output line. One record reports its metrics
// under their own names; several (all workloads, or repeated runs) report
// the median of each metric under "<workload>/<name>".
func summaryLine(recs []record) resultLine {
	out := resultLine{Correct: true, Metrics: map[string]lineValue{}}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range recs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for n, m := range r.Metrics {
			key := n
			if len(recs) > 1 {
				key = r.Workload + "/" + n
			}
			vals[key] = append(vals[key], m.Value)
			units[key] = m.Unit
		}
	}
	for k, v := range vals {
		out.Metrics[k] = lineValue{Value: median(v), Unit: units[k]}
	}
	return out
}

// readRecords loads a -out file; a missing file is an empty list.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// appendRecords adds recs to the list stored in path, one record a line.
func appendRecords(path string, recs []record) error {
	old, err := readRecords(path)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range append(old, recs...) {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteString(",\n")
		}
		b.Write(line)
	}
	b.WriteString("\n]\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
