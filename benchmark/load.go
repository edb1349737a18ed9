package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"influmax/benchmark/internal/span"
	"influmax/benchmark/internal/tap"
	"influmax/internal/graph"
	"influmax/internal/imm"
)

// A request is one pre-marshalled query, with the same query in the form
// the library takes, so that it can be repeated without HTTP and its
// answer checked.
type request struct {
	shape string
	path  string
	body  []byte

	q        imm.Query      // /v1/seeds
	seeds    []graph.Vertex // /v1/spread
	audience []graph.Vertex // /v1/spread
}

// label names the request in span names: its shape, and for a plain query
// its k, which is all that distinguishes one plain query from another.
func (r request) label() string {
	if r.shape == "plain" {
		return "plain.k" + strconv.Itoa(r.q.K)
	}
	return r.shape
}

// seedsBody and spreadBody are the wire forms of the two query routes, as
// immserve and immrouter both read them.
type seedsBody struct {
	K        int            `json:"k"`
	Budget   float64        `json:"budget,omitempty"`
	Costs    []float64      `json:"costs,omitempty"`
	Audience []graph.Vertex `json:"audience,omitempty"`
	Blocked  []graph.Vertex `json:"blocked,omitempty"`
}

type spreadBody struct {
	Seeds    []graph.Vertex `json:"seeds"`
	Audience []graph.Vertex `json:"audience,omitempty"`
}

func seedsRequest(shape string, q imm.Query) request {
	body, err := json.Marshal(seedsBody{K: q.K, Budget: q.Budget, Costs: q.Costs, Audience: q.Audience, Blocked: q.Blocked})
	if err != nil {
		panic(err) // numbers and slices of numbers always marshal
	}
	return request{shape: shape, path: "/v1/seeds", body: body, q: q}
}

func spreadRequest(seeds []graph.Vertex) request {
	body, err := json.Marshal(spreadBody{Seeds: seeds})
	if err != nil {
		panic(err)
	}
	return request{shape: "spread", path: "/v1/spread", body: body, seeds: seeds}
}

// A mixEntry is one line of a workload's request mix: how many of every
// hundred requests have this shape.
type mixEntry struct {
	shape   string
	percent int
}

// poolSize is the number of distinct requests a pool holds; the clients
// cycle through them, so a run's mix is the pool's mix.
const poolSize = 200

// buildPool makes the workload's requests from the seed. ks are the k
// values plain queries rotate through; kMax bounds the others.
func buildPool(g *graph.Graph, rng *rand.Rand, mix []mixEntry, ks []int, kMax int) []request {
	n := g.NumVertices()
	byDegree := make([]graph.Vertex, n)
	for v := range byDegree {
		byDegree[v] = graph.Vertex(v)
	}
	sort.SliceStable(byDegree, func(i, j int) bool { return g.OutDegree(byDegree[i]) > g.OutDegree(byDegree[j]) })
	// Rivals and spread seeds come from the well-connected vertices, where
	// real campaigns' seeds are.
	hubs := byDegree[:min(n, 1000)]
	pick := func(from []graph.Vertex, count int) []graph.Vertex {
		out := make([]graph.Vertex, 0, count)
		for _, i := range rng.Perm(len(from))[:min(count, len(from))] {
			out = append(out, from[i])
		}
		return out
	}
	// A few cost vectors are shared by the costs requests: a cost per
	// vertex in {0.5, 1, ..., 4}, two digits on the wire.
	costVectors := make([][]float64, 4)
	for i := range costVectors {
		costVectors[i] = make([]float64, n)
		for v := range costVectors[i] {
			costVectors[i][v] = 0.5 * float64(1+rng.IntN(8))
		}
	}

	var pool []request
	for _, m := range mix {
		for i := 0; i < m.percent*poolSize/100; i++ {
			k := kMax/2 + rng.IntN(kMax/2+1)
			switch m.shape {
			case "plain":
				pool = append(pool, seedsRequest("plain", imm.Query{K: ks[i%len(ks)]}))
			case "budgeted":
				pool = append(pool, seedsRequest("budgeted", imm.Query{K: k, Budget: float64(5 + rng.IntN(k))}))
			case "costs":
				pool = append(pool, seedsRequest("costs", imm.Query{K: k, Budget: float64(10 + rng.IntN(2*k)), Costs: costVectors[i%len(costVectors)]}))
			case "targeted":
				pool = append(pool, seedsRequest("targeted", imm.Query{K: k, Audience: pick(byDegree, max(1, n/100))}))
			case "blocked":
				pool = append(pool, seedsRequest("blocked", imm.Query{K: k, Blocked: pick(hubs, 10)}))
			case "spread":
				pool = append(pool, spreadRequest(pick(hubs, 20)))
			default:
				panic("unknown request shape " + m.shape)
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// A sample is one request a client sent.
type sample struct {
	req     int // index into the pool
	end     time.Duration
	latency time.Duration
	status  int // 0: transport error
}

// A loader sends a pool's requests to one base URL from closed-loop
// clients over one keep-alive http.Client.
type loader struct {
	base   string
	pool   []request
	client *http.Client
	rec    *span.Recorder // nil: no client spans, no X-Bench headers
	// spanName prefixes the request's label in the client span's name.
	spanName string

	mu   sync.Mutex
	kept map[int][]byte // first 200 body per pool index
	next uint64         // request ids
}

func newLoader(base string, pool []request, clients int) *loader {
	tr := &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients, IdleConnTimeout: time.Minute}
	return &loader{
		base: base, pool: pool, kept: make(map[int][]byte), spanName: "client.request.",
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
	}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// send posts pool request i and returns its status (0 for a transport
// error) and latency. buf is the caller's read buffer.
func (l *loader) send(i int, buf *bytes.Buffer) (status int, latency time.Duration) {
	r := l.pool[i]
	req, err := http.NewRequest(http.MethodPost, l.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	var sp *span.Open
	if l.rec != nil {
		l.mu.Lock()
		l.next++
		id := l.next
		l.mu.Unlock()
		sp = l.rec.Begin(l.spanName+r.label(), 0, id)
		req.Header.Set(tap.HeaderParent, strconv.FormatUint(sp.ID(), 10))
		req.Header.Set(tap.HeaderRequest, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		sp.End()
		return 0, time.Since(start)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	latency = time.Since(start)
	sp.End()
	if err != nil {
		return 0, latency
	}
	if resp.StatusCode == http.StatusOK {
		l.mu.Lock()
		if _, ok := l.kept[i]; !ok {
			l.kept[i] = append([]byte(nil), buf.Bytes()...)
		}
		l.mu.Unlock()
	}
	return resp.StatusCode, latency
}

// A loadResult is one timed slice of closed-loop load.
type loadResult struct {
	samples []sample // in completion order
	wall    time.Duration
	// busy is the share of the wall the clients spent outside their HTTP
	// calls: the generator's own bookkeeping.
	busy float64
	cpu  float64
}

// run drives `clients` closed-loop clients for d. Client j starts at pool
// offset j*len(pool)/clients, so together they cover the pool evenly.
func (l *loader) run(clients int, d time.Duration) loadResult {
	per := make([][]sample, clients)
	inCall := make([]time.Duration, clients)
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for j := 0; j < clients; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var buf bytes.Buffer
			i := j * len(l.pool) / clients
			for time.Since(start) < d {
				status, lat := l.send(i, &buf)
				inCall[j] += lat
				per[j] = append(per[j], sample{req: i, end: time.Since(start), latency: lat, status: status})
				i = (i + 1) % len(l.pool)
			}
		}(j)
	}
	wg.Wait()
	res := loadResult{wall: time.Since(start)}
	res.cpu = cpuUtil(cpu0, res.wall)
	var called time.Duration
	for j := range per {
		res.samples = append(res.samples, per[j]...)
		called += inCall[j]
	}
	res.busy = 1 - float64(called)/(float64(res.wall)*float64(clients))
	sort.Slice(res.samples, func(a, b int) bool { return res.samples[a].end < res.samples[b].end })
	return res
}

// serial sends pool requests idx one at a time.
func (l *loader) serial(idx []int) []sample {
	var buf bytes.Buffer
	out := make([]sample, 0, len(idx))
	for _, i := range idx {
		status, lat := l.send(i, &buf)
		out = append(out, sample{req: i, latency: lat, status: status})
	}
	return out
}

// latenciesMS returns the latencies of the 200s among samples whose shape
// passes keep (nil: all), in ms, in completion order.
func latenciesMS(samples []sample, pool []request, keep func(shape string) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.status == http.StatusOK && (keep == nil || keep(pool[s.req].shape)) {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	return out
}

// countLoad adds a slice's requests to the run's attempted and failed
// counts: anything but a 200 is a failed operation, a refusal included.
func (c *runCtx) countLoad(samples []sample, pool []request) (rejected int) {
	for _, s := range samples {
		c.attempted++
		switch s.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rejected++
			c.fail("%s request refused with 429", pool[s.req].shape)
		default:
			c.fail("%s request answered %d", pool[s.req].shape, s.status)
		}
	}
	return rejected
}

// e2eFromLoad reports the three load metrics of a closed-loop slice.
func (c *runCtx) e2eFromLoad(res loadResult, pool []request) {
	lat := latenciesMS(res.samples, pool, nil)
	p50s, tails := blockStats(lat, c.spec.block, c.spec.tailPct)
	c.e2e["op_p50_ms"] = medianOf(p50s, "ms")
	c.e2e["op_tail_ms"] = medianOf(tails, "ms")
	c.e2e["ops_per_s"] = exact(float64(len(lat))/res.wall.Seconds(), "1/s")
}

// A listener is one http.Server on a loopback port of the kernel's choice.
type listener struct {
	srv *http.Server
	url string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go l.srv.Serve(ln) // returns when close shuts the server down
	return l, nil
}

func (l *listener) close() {
	l.srv.Close()
}

// postOnce sends one body outside any loader and decodes a 200's JSON
// into out.
func postOnce(client *http.Client, url string, body []byte, out any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s answered %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
