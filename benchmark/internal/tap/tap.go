// Package tap holds the two probes the benchmark puts around the system's
// public seams: an http.Handler middleware (bytes in and out, busy time,
// one span per request) and a cluster.Conn decorator (one timed op per
// shard round trip). Both are switched off until Enable is called, so one
// process can measure a slice without them and a slice with them.
package tap

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"influmax/benchmark/internal/span"
	"influmax/internal/cluster"
	"influmax/internal/graph"
)

// Headers by which a traced client names its span to the handler tap.
const (
	HeaderParent  = "X-Bench-Parent"
	HeaderRequest = "X-Bench-Request"
)

// Handler is the counting middleware around one http.Handler.
type Handler struct {
	name   string
	rec    *span.Recorder
	parent func() (parent, request uint64)
	on     atomic.Bool
	spans  atomic.Bool
	cur    atomic.Uint64
	curReq atomic.Uint64

	Requests  atomic.Int64
	ReqBytes  atomic.Int64
	RespBytes atomic.Int64
	BusyNs    atomic.Int64
}

// NewHandler makes a tap that names its spans name. A request's parent
// span comes from its X-Bench headers; parent, when not nil, supplies it
// for requests that carry none (the router's shard calls cannot).
func NewHandler(name string, rec *span.Recorder, parent func() (uint64, uint64)) *Handler {
	return &Handler{name: name, rec: rec, parent: parent}
}

// Enable switches counting on or off; SetSpans does the same for span
// recording, which also needs counting on.
func (t *Handler) Enable(on bool)   { t.on.Store(on) }
func (t *Handler) SetSpans(on bool) { t.spans.Store(on) }

// Current names the span of the request the handler is serving, for what
// the handler calls to use as its parent. It is only meaningful while one
// request is in flight.
func (t *Handler) Current() (parent, request uint64) { return t.cur.Load(), t.curReq.Load() }

// Reset zeroes the counters.
func (t *Handler) Reset() {
	t.Requests.Store(0)
	t.ReqBytes.Store(0)
	t.RespBytes.Store(0)
	t.BusyNs.Store(0)
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

// Flush keeps NDJSON streaming handlers working behind the tap.
func (w countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Wrap returns next behind the tap.
func (t *Handler) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		var open *span.Open
		if t.spans.Load() {
			parent, _ := strconv.ParseUint(r.Header.Get(HeaderParent), 10, 64)
			request, _ := strconv.ParseUint(r.Header.Get(HeaderRequest), 10, 64)
			if parent == 0 && t.parent != nil {
				parent, request = t.parent()
			}
			open = t.rec.Begin(t.name, parent, request)
			t.cur.Store(open.ID())
			t.curReq.Store(request)
		}
		start := time.Now()
		r.Body = countingBody{r.Body, &t.ReqBytes}
		next.ServeHTTP(countingWriter{w, &t.RespBytes}, r)
		t.BusyNs.Add(int64(time.Since(start)))
		t.Requests.Add(1)
		open.End()
	})
}

// ConnTap is shared by the decorators of one fleet's connections.
type ConnTap struct {
	rec   *span.Recorder
	on    atomic.Bool
	spans atomic.Bool

	mu sync.Mutex
	// parent names the router-level span the ops belong to. One answer
	// serves the whole fleet, so spans are only attributed correctly while
	// a single query is in flight.
	parent func() (parent, request uint64)
	durs   map[string][]int64
}

// NewConnTap makes the shared part of a fleet's decorators.
func NewConnTap(rec *span.Recorder) *ConnTap {
	return &ConnTap{rec: rec, durs: make(map[string][]int64)}
}

func (t *ConnTap) Enable(on bool)   { t.on.Store(on) }
func (t *ConnTap) SetSpans(on bool) { t.spans.Store(on) }

// SetParent sets where the ops that follow find the span that causes
// them; nil makes them roots.
func (t *ConnTap) SetParent(parent func() (parent, request uint64)) {
	t.mu.Lock()
	t.parent = parent
	t.mu.Unlock()
}

func (t *ConnTap) currentParent() (parent, request uint64) {
	t.mu.Lock()
	f := t.parent
	t.mu.Unlock()
	if f == nil {
		return 0, 0
	}
	return f()
}

// Reset forgets every recorded op.
func (t *ConnTap) Reset() {
	t.mu.Lock()
	t.durs = make(map[string][]int64)
	t.mu.Unlock()
}

// Durations returns the recorded round-trip times in ns, per op name
// (info, start, start_filtered, purge, spread, end).
func (t *ConnTap) Durations() map[string][]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]int64, len(t.durs))
	for op, d := range t.durs {
		out[op] = append([]int64(nil), d...)
	}
	return out
}

// Conn decorates one shard connection.
type Conn struct {
	inner  cluster.Conn
	tap    *ConnTap
	cur    atomic.Uint64
	curReq atomic.Uint64
}

// Wrap puts c behind the tap.
func (t *ConnTap) Wrap(c cluster.Conn) *Conn { return &Conn{inner: c, tap: t} }

// Current names the op span in flight on this connection, for the shard
// handler's tap to use as its parent.
func (c *Conn) Current() (parent, request uint64) {
	return c.cur.Load(), c.curReq.Load()
}

// observe times one op; the returned func ends it.
func (c *Conn) observe(op string) func() {
	t := c.tap
	if !t.on.Load() {
		return func() {}
	}
	var open *span.Open
	if t.spans.Load() {
		parent, request := t.currentParent()
		open = t.rec.Begin("cluster.conn."+op, parent, request)
		c.cur.Store(open.ID())
		c.curReq.Store(request)
	}
	start := time.Now()
	return func() {
		d := int64(time.Since(start))
		open.End()
		t.mu.Lock()
		t.durs[op] = append(t.durs[op], d)
		t.mu.Unlock()
	}
}

func (c *Conn) Info() (cluster.ShardInfo, error) {
	defer c.observe("info")()
	return c.inner.Info()
}

func (c *Conn) Start(session uint64) ([]int64, error) {
	defer c.observe("start")()
	return c.inner.Start(session)
}

func (c *Conn) StartFiltered(session uint64, audience []graph.Vertex) ([]int64, int64, error) {
	defer c.observe("start_filtered")()
	return c.inner.StartFiltered(session, audience)
}

func (c *Conn) Purge(session uint64, v graph.Vertex) ([]cluster.DecPair, error) {
	defer c.observe("purge")()
	return c.inner.Purge(session, v)
}

func (c *Conn) Spread(seeds, audience []graph.Vertex) (int64, int64, error) {
	defer c.observe("spread")()
	return c.inner.Spread(seeds, audience)
}

func (c *Conn) End(session uint64) error {
	defer c.observe("end")()
	return c.inner.End(session)
}

func (c *Conn) Close() error { return c.inner.Close() }
