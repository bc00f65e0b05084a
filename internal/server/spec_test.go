package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"testing"
)

// decodeBodies are submit bodies that pin which path DecodeJobSpec takes:
// fast marks the bodies its one-pass array parse accepts, every other one
// is a fallback trigger, decoded whole by encoding/json.
var decodeBodies = []struct {
	body string
	fast bool
}{
	{`{"keys":[3,1,2]}`, true},
	{` {"keys":[ 0 , 18446744073709551615,` + "\n\t7\r" + `]} `, true},
	{`{"keys":[]}`, true},
	{`{"keys":[3, 1, 2], "p": 2, "merge": "binary-tree", "exchange": "bruck"}`, true},
	{`{"keys":[1],"n":5}`, true},
	{`{"keys":[1]}trailing bytes`, true},
	{`{"keys":[1],"p":2} {"p":3}`, true},

	// Pretty-printed, and keys last.
	{"{\n  \"keys\": [\n    1,\n    2\n  ]\n}", false},
	{`{"p":2,"keys":[1,2]}`, false},
	// Another spelling of the name, or a second member that folds to it.
	{`{"KEYS":[1]}`, false},
	{`{"\u006beys":[1]}`, false},
	{`{"keys":[1],"\u004beys":[2]}`, false},
	{`{"keys":[1],"Keys":null}`, false},
	{`{"keys":[1],"keys":[2]}`, false},
	{`{"keys":[1],"p":2,"kEyS":[3]}`, false},
	{`{"keys":[1],"dist":"Keys"}`, false},
	// Not a canonical decimal.
	{`{"keys":[01]}`, false},
	{`{"keys":[-1]}`, false},
	{`{"keys":[1e3]}`, false},
	{`{"keys":[1.0]}`, false},
	{`{"keys":[18446744073709551616]}`, false},
	{`{"keys":[99999999999999999999]}`, false},
	{`{"keys":[184467440737095516150]}`, false},
	{`{"keys":[1,]}`, false},
	{`{"keys":[,1]}`, false},
	{`{"keys":[1 2]}`, false},
	{`{"keys":[1,null]}`, false},
	{`{"keys":null}`, false},
	{`{"keys":["1"]}`, false},
	// Broken after the array.
	{`{"keys":[1],}`, false},
	{`{"keys":[1],"nope":1}`, false},
	{`{"keys":[1],"p":"2"}`, false},
	{`{"keys":[1]`, false},
	{`{"keys":[1`, false},
	{`{"keys":[1]]`, false},
	// Neither inline nor an object.
	{`{"n": 1000}`, false},
	{``, false},
	{`[1,2]`, false},
	{`null`, false},
}

// jsonDecode is the reference: a plain encoding/json decode of the first
// value on r, unknown fields rejected — what the HTTP layer did before
// DecodeJobSpec existed.
func jsonDecode(r io.Reader) (JobSpec, error) {
	var sp JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

// sameDecode fails t unless DecodeJobSpec and the reference agree on body:
// the same JobSpec, or the same error text.  limit > 0 reads both through an
// http.MaxBytesReader of that many bytes, the way the HTTP layer does.
func sameDecode(t *testing.T, body []byte, limit int64) {
	t.Helper()
	open := func() io.Reader {
		if limit > 0 {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)
		}
		return bytes.NewReader(body)
	}
	got, err := DecodeJobSpec(open(), len(body))
	want, wantErr := jsonDecode(open())
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("body %q (limit %d): error %v, reference %v", body, limit, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("body %q (limit %d): error %q, reference %q", body, limit, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q (limit %d): %+v, reference %+v", body, limit, got, want)
	}
}

// TestDecodeJobSpecPaths pins which bodies take the fast path and that
// every body, on either path and cut short by a body limit anywhere,
// decodes exactly as the reference does.
func TestDecodeJobSpecPaths(t *testing.T) {
	for _, c := range decodeBodies {
		if _, ok := decodeInline([]byte(c.body)); ok != c.fast {
			t.Errorf("body %q: fast path %v, want %v", c.body, ok, c.fast)
		}
		sameDecode(t, []byte(c.body), 0)
		for limit := int64(1); limit <= int64(len(c.body)); limit++ {
			sameDecode(t, []byte(c.body), limit)
		}
	}
}

// TestDecodeJobSpecExactCapacity: the fast path allocates the keys once,
// at their exact count, and a body of the declared size is read into one
// buffer.
func TestDecodeJobSpecExactCapacity(t *testing.T) {
	body := inlineBody(rand.New(rand.NewSource(3)), 2048, false)
	sp, err := DecodeJobSpec(bytes.NewReader(body), len(body))
	if err != nil || len(sp.Keys) != 2048 || cap(sp.Keys) != 2048 {
		t.Fatalf("len %d cap %d err %v, want 2048/2048", len(sp.Keys), cap(sp.Keys), err)
	}
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		_, _ = DecodeJobSpec(r, len(body))
	})
	if allocs > 2 {
		t.Errorf("fast path makes %.0f allocations per body, want the buffer and the keys", allocs)
	}
}

// TestDecodeJobSpecBoundsAllocation: neither a declared size the body never
// reaches nor an array of bare commas sizes an allocation from the claim.
// A short body declared at 64 MiB gets a buffer of at most maxSizeHint, and
// an array of commas gets at most 4 bytes of keys per body byte (a valid
// array holds at most one key per two bytes).
func TestDecodeJobSpecBoundsAllocation(t *testing.T) {
	short := []byte(`{"keys":[3,1,2]}`)
	var sp JobSpec
	var err error
	if got := allocBytes(func() { sp, err = DecodeJobSpec(bytes.NewReader(short), 64<<20) }); got > 2*maxSizeHint {
		t.Errorf("a %d-byte body declared at 64 MiB allocates %d bytes", len(short), got)
	}
	if err != nil || len(sp.Keys) != 3 {
		t.Fatalf("short body: %+v, %v", sp, err)
	}

	commas := append(append([]byte(`{"keys":[1`), bytes.Repeat([]byte{','}, 1<<20)...), "]}"...)
	var ok bool
	if got := allocBytes(func() { _, ok = decodeInline(commas) }); got > 4*uint64(len(commas))+64<<10 { // 4 bytes a byte, plus page rounding
		t.Errorf("a %d-byte array of commas allocates %d bytes", len(commas), got)
	}
	if ok {
		t.Fatal("an array of bare commas took the fast path")
	}
}

// allocBytes returns the bytes the heap handed out while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// inlineBody is a submit body of n random keys: what json.Marshal sends,
// or the same spec pretty-printed.
func inlineBody(rng *rand.Rand, n int, pretty bool) []byte {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = rng.Uint64()
	}
	var body []byte
	if pretty {
		body, _ = json.MarshalIndent(JobSpec{Keys: ks}, "", "  ")
	} else {
		body, _ = json.Marshal(JobSpec{Keys: ks})
	}
	return body
}

// FuzzJobSpecDecode feeds arbitrary submit bodies through DecodeJobSpec
// and normalize.  The decode must equal a plain encoding/json decode (the
// same JobSpec, or the same error), whole and cut short by a body limit;
// neither step may panic; every spec normalize accepts must pass
// Config.Validate; and an accepted spec must survive a marshal, decode and
// second normalize unchanged on the wire.
func FuzzJobSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"n": 1000}`,
		`{"keys": [3, 1, 2], "p": 2, "merge": "binary-tree", "exchange": "bruck"}`,
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
	for _, c := range decodeBodies {
		f.Add([]byte(c.body))
	}
	f.Add(inlineBody(rand.New(rand.NewSource(1)), 8, true))
	s := newTestServer(Config{MaxN: 1 << 16, MaxP: 16, ScratchDir: f.TempDir()})
	defer s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode(t, body, 0)
		sameDecode(t, body, int64(len(body)/2+1))
		sp, err := DecodeJobSpec(bytes.NewReader(body), len(body))
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
		again, err := DecodeJobSpec(bytes.NewReader(wire), len(wire))
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

// BenchmarkDecodeJobSpec decodes serve-session's inline body (2,048
// full-range keys, as json.Marshal sends it) on the fast path, and the
// same spec pretty-printed, which takes the encoding/json fallback.
func BenchmarkDecodeJobSpec(b *testing.B) {
	for _, c := range []struct {
		name   string
		pretty bool
	}{{"canonical-2048", false}, {"pretty-2048", true}} {
		body := inlineBody(rand.New(rand.NewSource(7)), 2048, c.pretty)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				if sp, err := DecodeJobSpec(bytes.NewReader(body), len(body)); err != nil || len(sp.Keys) != 2048 {
					b.Fatalf("decode: %d keys, %v", len(sp.Keys), err)
				}
			}
		})
	}
}
