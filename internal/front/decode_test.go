package front

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"influmax/internal/metrics"
)

// decodeSeeds are FuzzDecodeRequest's seed bodies: every number, key and
// array form the scanner must either take exactly as json.Unmarshal does
// or leave to it.
var decodeSeeds = []string{
	`{"k":3,"costs":[0.5,1,2.5,-0,123456789012345,0.123456789012345,1.0000000000000002,9007199254740993],"budget":4}`,
	`{"k":2,"epsilon":0.1,"model":"IC","seed":18446744073709551615,"stream":false,"audience":[0,4294967295],"blocked":[]}`,
	` { "seeds" : [ 1 , 2 ] , "audience" : [ ] } ` + "\n",
	`{"k":1,"costs":[   1]}`,
	`{"k":1,"costs":[ 1 ,2 ],"audience":[  3],"blocked":[` + "\n\t " + `4,5]}`,
	`{"seeds":[    1]}`,
	`{"k":-0,"budget":1e-400,"costs":[1E2,2.5e+1,7e-1]}`,
	`{"k":1,"costs":[01]}`,
	`{"k":1,"costs":[1.]}`,
	`{"k":1,"costs":[.5]}`,
	`{"k":1,"costs":[-]}`,
	`{"k":1,"costs":[1e400]}`,
	`{"k":1,"budget":0x1}`,
	`{"k":1,"costs":[1,2,]}`,
	`{"k":1,"costs":null,"audience":null,"blocked":null,"budget":null}`,
	`{"k":1,"costs":[1,null,2],"audience":[null]}`,
	`{"seeds":null,"audience":[null]}`,
	`{"k":1,"blocked":[-1]}`,
	`{"k":1,"audience":[4294967296]}`,
	`{"seeds":[-1]}`,
	`{"seeds":[4294967296]}`,
	`{"k":1,"stream":true}`,
	`{"\u006b":1,"st\u0072eam":true,"s\u0065eds":[1]}`,
	`{"K":2,"Costs":[1,2],"BUDGET":3,"Seeds":[1]}`,
	`{"Seeds":[1],"seeds":[2]}`,
	`{"k":1,"k":2,"blocked":[1],"blocked":[2,3]}`,
	`{"k":1,"costs":[1,2,3],"costs":[5],"costs":[null,null]}`,
	`{"k":1}{"k":2}`,
	`{"k":1} garbage`,
	`{"seeds":[1]}{"seeds":[2]}`,
	`null`,
}

// FuzzDecodeRequest: for any bytes, the decoder the fronts use and
// json.Unmarshal agree on accept or reject and, on accept, on the decoded
// SeedsRequest and SpreadRequest (with -0 told from 0).
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameAsUnmarshal[SeedsRequest](t, body)
		sameAsUnmarshal[SpreadRequest](t, body)
	})
}

func sameAsUnmarshal[T any](t *testing.T, body []byte) {
	t.Helper()
	// Clipped, so a read past the body is a panic, not stale bytes.
	body = body[:len(body):len(body)]
	var got, want T
	gotErr, wantErr := unmarshal(body, &got), json.Unmarshal(body, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T from %q: decoder error %v, json.Unmarshal error %v", got, body, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gj, wj) {
		t.Fatalf("%T from %q: decoded %s, json.Unmarshal %s", got, body, gj, wj)
	}
}

// TestScannerTakesCommonBodies: the bodies clients send are decoded by
// the scanner itself, not handed to json.Unmarshal.
func TestScannerTakesCommonBodies(t *testing.T) {
	for _, body := range []string{
		`{"k":10}`,
		`{"k":25,"budget":31,"costs":[0.5,4,2.5,1,1.5]}`,
		`{"k":20,"audience":[5,17,3]}`,
		`{"k":20,"blocked":[1,2,3,4,5,6,7,8,9,10]}`,
		`{"k":5,"budget":0,"audience":[],"blocked":[]}`,
	} {
		var r SeedsRequest
		if !scanSeeds([]byte(body), &r) {
			t.Errorf("scanner left %s to json.Unmarshal", body)
		}
	}
	for _, body := range []string{`{"seeds":[3,1,4]}`, `{"seeds":[0],"audience":[1,2]}`} {
		var r SpreadRequest
		if !scanSpread([]byte(body), &r) {
			t.Errorf("scanner left %s to json.Unmarshal", body)
		}
	}
}

// TestTrailingData: a body is one JSON value; anything after it but
// whitespace is a 400 on both query routes.
func TestTrailingData(t *testing.T) {
	tf := newTestFront(t, Config{})
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/seeds", `{"k":1}{"k":2}`, http.StatusBadRequest},
		{"/v1/seeds", `{"k":1} garbage`, http.StatusBadRequest},
		{"/v1/seeds", `{"K":1}{"k":2}`, http.StatusBadRequest},
		{"/v1/seeds", " {\"k\":1} \r\n\t", http.StatusOK},
		{"/v1/spread", `{"seeds":[1]}{"seeds":[2]}`, http.StatusBadRequest},
		{"/v1/spread", `{"seeds":[1]}` + "\n", http.StatusOK},
	} {
		if resp, body := tf.post(t, tc.path, tc.body); resp.StatusCode != tc.status {
			t.Errorf("%s %q: %d %s, want %d", tc.path, tc.body, resp.StatusCode, body, tc.status)
		}
	}
	tf.settled(t)
}

// TestPaddedArrays: whitespace after an array's '[' — a few bytes, or
// most of the body — decodes on both query routes, and every admission
// slot is released.
func TestPaddedArrays(t *testing.T) {
	tf := newTestFront(t, Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/seeds", `{"k":1,"budget":5,"costs":[   1,1,1,1,1,1,1,1,1,1],"blocked":[ 3]}`},
		{"/v1/spread", `{"seeds":[  1],"audience":[` + "\n\t" + `2,3]}`},
		{"/v1/spread", `{"seeds":[` + strings.Repeat(" ", 600<<10) + `1]}`},
		{"/v1/seeds", `{"k":1,"audience":[` + strings.Repeat(" ", 600<<10) + `1,2]}`},
	} {
		if resp, body := tf.post(t, tc.path, tc.body); resp.StatusCode != http.StatusOK {
			t.Errorf("%s %.40q: %d %s", tc.path, tc.body, resp.StatusCode, body)
		}
	}
	tf.settled(t)
}

// TestSeedsBodyCapFollowsN: a dense costs vector over n = 400,000
// vertices is past 1 MiB and within the /v1/seeds cap of 1 MiB + 8 B a
// vertex; one byte past that cap is refused, and /v1/spread keeps 1 MiB.
func TestSeedsBodyCapFollowsN(t *testing.T) {
	const n = 400_000
	f := New(Config{Name: "test", KMax: 3, NumVertices: n, Metrics: metrics.NewRegistry()}, &fakeBackend{})
	srv := httptest.NewServer(f.Mux)
	defer srv.Close()
	tf := &testFront{Front: f, srv: srv}

	dense := `{"k":2,"budget":5,"costs":[` + strings.Repeat("2.5,", n-1) + `2.5]}`
	if len(dense) <= maxBody {
		t.Fatalf("dense body of %d bytes is within 1 MiB", len(dense))
	}
	if resp, body := tf.post(t, "/v1/seeds", dense); resp.StatusCode != http.StatusOK {
		t.Fatalf("dense costs over n = %d (%d bytes): %d %s", n, len(dense), resp.StatusCode, body)
	}
	padded := `{"k":2}` + strings.Repeat(" ", int(seedsBodyCap(n))-len(`{"k":2}`)+1)
	if resp, body := tf.post(t, "/v1/seeds", padded); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(body, "too large") {
		t.Fatalf("body one byte past the cap: %d %s", resp.StatusCode, body)
	}
	spread := `{"seeds":[1]}` + strings.Repeat(" ", maxBody)
	if resp, body := tf.post(t, "/v1/spread", spread); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(body, "too large") {
		t.Fatalf("spread body past 1 MiB: %d %s", resp.StatusCode, body)
	}
}

// BenchmarkDecodeCosts decodes one /v1/seeds body carrying a dense costs
// vector over the serve-mixed graph's 113,489 vertices.
func BenchmarkDecodeCosts(b *testing.B) {
	costs := make([]string, 113_489)
	for v := range costs {
		costs[v] = []string{"0.5", "1", "1.5", "2", "2.5", "3", "3.5", "4"}[v%8]
	}
	body := []byte(`{"k":40,"budget":57,"costs":[` + strings.Join(costs, ",") + `]}`)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for range b.N {
		var r SeedsRequest
		if err := unmarshal(body, &r); err != nil {
			b.Fatal(err)
		}
	}
}
