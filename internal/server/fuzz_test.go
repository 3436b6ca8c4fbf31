package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lsnuma"
)

// FuzzParseJobRequest drives newJob, the daemon's job-request decode
// and expansion path, with hostile bodies for every job endpoint:
// whatever parses must satisfy the invariants every handler (and the
// journal replay path) relies on — a valid workload, validated point
// configs, and a tenant name safe to use as a file-system and metric
// label token — and must expand reproducibly: the canonical request the
// journal stores expands to the same job on replay.
func FuzzParseJobRequest(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"workload":"mp3d","sweep":"block","tenant":"team-a"}`,
		`{"workload":"oltp","scale":"small","config":{"Protocol":"LS"}}`,
		`{"tenant":"../../etc/passwd"}`,
		`{"tenant":"` + strings.Repeat("a", 64) + `"}`,
		`{"tenant":""}`,
		`{"config":{"Nodes":1073741824}}`,
		`{"config":{"BlockSize":0}}`,
		`{"workload":"mp3d","workload":"oltp"}`,
		`{"point_timeout_ms":-5}`,
		`{"config":{"Nodes":-3}}`,
		`[1,2,3]`,
		`"just a string"`,
		"\x00\x01\x02",
		`{"config":"not an object"}`,
		`{"sweep":"voltage"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, endpoint := range endpoints {
			j, err := newJob(endpoint, bytes.NewReader(data))
			if err != nil {
				continue // rejection is always acceptable; crashing is not
			}
			if j.req.Tenant != "" && !tenantPattern.MatchString(j.req.Tenant) {
				t.Fatalf("%s: accepted unsafe tenant %q", endpoint, j.req.Tenant)
			}
			if !slices.Contains(lsnuma.Workloads(), j.req.Workload) {
				t.Fatalf("%s: accepted unknown workload %q", endpoint, j.req.Workload)
			}
			if len(j.points) == 0 {
				t.Fatalf("%s: accepted a job with no points", endpoint)
			}
			for _, pt := range j.points {
				if err := pt.Config.Validate(); err != nil {
					t.Fatalf("%s: accepted invalid config: %v", endpoint, err)
				}
				if pt.Scale.String() == "" {
					t.Fatalf("%s: accepted request with unnamed scale %v", endpoint, pt.Scale)
				}
			}
			body, err := json.Marshal(j.req)
			if err != nil {
				t.Fatalf("%s: canonical request does not marshal: %v", endpoint, err)
			}
			again, err := newJob(endpoint, bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: canonical request %s rejected on replay: %v", endpoint, body, err)
			}
			if !reflect.DeepEqual(again.grid, j.grid) || !reflect.DeepEqual(again.points, j.points) {
				t.Fatalf("%s: expansion of %s not reproducible", endpoint, body)
			}
		}
	})
}
