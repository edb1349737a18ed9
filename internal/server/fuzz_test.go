package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"influmax/internal/front"
	"influmax/internal/graph"
)

// FuzzSeedsRequest fuzzes the extended /v1/seeds and /v1/spread JSON
// decoders end to end through the real handler: any body — however
// malformed, hostile or oversized — must produce a well-formed response
// (200 with valid JSON, or 400 with a JSON error), never a panic, and
// never disturb the resident sketch (a canonical plain query must answer
// byte-identical seeds after every fuzzed request). A 200 NDJSON stream
// must be valid JSON on every line, and its last line's seeds must equal
// the answer to the same request without stream.
func FuzzSeedsRequest(f *testing.F) {
	f.Add(false, []byte(`{"k":1}`))
	f.Add(false, []byte(`{"k":3,"budget":2.5}`))
	f.Add(false, []byte(`{"k":3,"costs":[1,2],"budget":4}`))
	f.Add(false, []byte(`{"k":3,"costs":[]}`))
	f.Add(false, []byte(`{"k":3,"costs":[],"budget":2}`))
	f.Add(false, []byte(`{"k":3,"audience":[0,3,6],"blocked":[1]}`))
	f.Add(false, []byte(`{"k":3,"budget":0,"audience":[],"blocked":[]}`))
	f.Add(false, []byte(`{"k":-1,"costs":"x"}`))
	f.Add(false, []byte(`{"k":2,"stream":true}`))
	f.Add(true, []byte(`{"seeds":[0,1,2]}`))
	f.Add(true, []byte(`{"seeds":[5],"audience":[0,2,4]}`))
	f.Add(true, []byte(`{"seeds":[],"audience":[4294967295]}`))
	f.Add(true, []byte(`{"seeds"`))
	// Number, key and array forms the hand-written body scanner must take
	// exactly as json.Unmarshal does or leave to it.
	for _, body := range []string{
		`{"k":1,"costs":[01]}`, `{"k":1,"costs":[1.]}`, `{"k":1,"costs":[.5]}`, `{"k":1,"costs":[-]}`,
		`{"k":1,"costs":[1e400]}`, `{"k":1,"budget":0x1}`, `{"k":1,"costs":[1,2,]}`,
		`{"k":1,"costs":null,"audience":null,"blocked":null,"budget":null}`,
		`{"k":1,"costs":[1,null,2],"audience":[null]}`,
		`{"k":1,"blocked":[-1]}`, `{"k":1,"audience":[4294967296]}`,
		`{"\u006b":1,"st\u0072eam":true}`, `{"K":2,"Budget":3}`, `{"k":1,"k":2,"blocked":[1],"blocked":[2,3]}`,
		`{"k":1}{"k":2}`, `{"k":1} garbage`, `null`,
		`{"k":1,"costs":[   1]}`, `{"k":1,"audience":[ 1 ,2 ],"blocked":[` + "\n\t " + `3]}`,
	} {
		f.Add(false, []byte(body))
	}
	for _, body := range []string{
		`{"seeds":null,"audience":[null]}`, `{"seeds":[-1]}`, `{"seeds":[4294967296]}`,
		`{"Seeds":[1],"seeds":[2]}`, `{"seeds":[1]}{"seeds":[2]}`, `{"seeds":[    1],"audience":[ 2]}`,
	} {
		f.Add(true, []byte(body))
	}

	g := testGraph(3, 40, 220)
	cfg := testConfig(g)
	cfg.KMax = 10
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	canonical := func() []graph.Vertex {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/seeds", bytes.NewReader([]byte(`{"k":2}`))))
		var sr seedsResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sr) != nil {
			return nil
		}
		return sr.Seeds
	}
	wantSeeds := canonical()
	if wantSeeds == nil {
		f.Fatal("canonical query failed at setup")
	}

	f.Fuzz(func(t *testing.T, spread bool, body []byte) {
		path := "/v1/seeds"
		if spread {
			path = "/v1/spread"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK && rec.Header().Get("Content-Type") == "application/x-ndjson":
			lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
			for _, line := range lines {
				if !json.Valid(line) {
					t.Fatalf("%s: NDJSON line is not JSON: %q", path, line)
				}
			}
			var last, whole seedsResponse
			json.Unmarshal(lines[len(lines)-1], &last)
			var req front.SeedsRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("streamed a body that does not decode: %q", body)
			}
			req.Stream = false
			plain, _ := json.Marshal(req)
			again := httptest.NewRecorder()
			h.ServeHTTP(again, httptest.NewRequest("POST", path, bytes.NewReader(plain)))
			if again.Code != http.StatusOK || json.Unmarshal(again.Body.Bytes(), &whole) != nil ||
				!slices.Equal(last.Seeds, whole.Seeds) || len(last.Seeds) == 0 {
				t.Fatalf("%s: stream ends with seeds %v, the same body without stream answers %d %q",
					path, last.Seeds, again.Code, again.Body.Bytes())
			}
		case rec.Code == http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: 200 with invalid JSON: %q", path, rec.Body.Bytes())
			}
		case rec.Code == http.StatusBadRequest:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s: 400 without a JSON error: %q", path, rec.Body.Bytes())
			}
		default:
			t.Fatalf("%s: status %d for body %q, want 200 or 400", path, rec.Code, body)
		}
		if got := canonical(); !slices.Equal(got, wantSeeds) {
			t.Fatalf("sketch mutated: canonical seeds %v != %v after body %q", got, wantSeeds, body)
		}
	})
}
