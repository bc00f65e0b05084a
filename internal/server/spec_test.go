package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeSpec decodes a submit body the way the HTTP layer does.
func decodeSpec(body []byte) (JobSpec, error) {
	var sp JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

// FuzzJobSpecDecode feeds arbitrary submit bodies through the decoder and
// normalize.  Neither may panic; every spec normalize accepts must pass
// Config.Validate; and an accepted spec must survive a marshal, decode and
// second normalize unchanged on the wire.
func FuzzJobSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"n": 1000}`,
		`{"keys": [3, 1, 2], "p": 2, "merge": "loser-tree", "exchange": "bruck"}`,
		`{"n": 5000, "dist": "zipf", "model": "pgas", "probes": 8, "epsilon": 0.1}`,
		`{"n": 4096, "spill": true, "recovery": "shrink", "fault": "die=1@1,seed=7"}`,
		`{"n": 64, "mem_budget": 256, "kernel": "introsort", "threads": 2}`,
		`{"n": 64, "merge": "nope"}`,
		`{"n": 64, "exchange": 3}`,
		`{"n": 64, "probes": 65}`,
		`{"n": 64, "keys": []}`,
	} {
		f.Add([]byte(seed))
	}
	s := newTestServer(Config{MaxN: 1 << 16, MaxP: 16, ScratchDir: f.TempDir()})
	defer s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(body)
		if err != nil || s.normalize(&sp) != nil {
			return
		}
		if err := sp.config(nil, s.cfg.ScratchDir).Validate(); err != nil {
			t.Fatalf("normalize accepted %+v, Validate rejects it: %v", sp, err)
		}
		wire, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("marshal %+v: %v", sp, err)
		}
		again, err := decodeSpec(wire)
		if err != nil {
			t.Fatalf("decode %s: %v", wire, err)
		}
		if err := s.normalize(&again); err != nil {
			t.Fatalf("normalize rejected its own output %s: %v", wire, err)
		}
		if rewire, _ := json.Marshal(again); !bytes.Equal(wire, rewire) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", wire, rewire)
		}
	})
}
