package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The HTTP transport: a shard-mode immserve mounts the three shard
// routes (ServeOp, ServeInfo, ServeSnapshot), and the router dials them
// through HTTPConn with the binary protocol codec as the bodies.

// ShardOpPath is the data-plane route: POST with a binary protocol
// request body, 200 with a binary protocol response body.
const ShardOpPath = "/v1/shard/op"

// maxOpBody bounds one shard-op request body: room for the vertex lists
// of opStartFiltered and opSpread on graphs of a few million vertices.
const maxOpBody = 1 << 25

// ServeOp handles POST /v1/shard/op.
func (sh *Shard) ServeOp(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxOpBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(sh.handle(body))
}

// ServeInfo handles GET /v1/shard/info with a JSON ShardInfo.
func (sh *Shard) ServeInfo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"shardIdx":%d,"shardCount":%d,"epoch":%d,"samples":%d,"numVertices":%d,"graphDigest":"%016x","model":%d,"epsilon":%g,"kMax":%d,"seed":%d,"theta":%d}`+"\n",
		sh.ShardIdx, sh.ShardCount, sh.Epoch, sh.Col.Count(), sh.Col.NumVertices(),
		sh.Meta.GraphDigest, sh.Meta.Model, sh.Meta.Epsilon, sh.Meta.KMax, sh.Meta.Seed, sh.Meta.Theta)
}

// ServeSnapshot handles GET /v1/snapshot: it streams the shard snapshot
// (header + v3 sketch snapshot) so a peer replica can warm-start without
// resampling; net/http chunks the transfer.
func (sh *Shard) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := writeShardSnapshot(w, sh); err != nil {
		// Headers are gone; all we can do is cut the stream so the peer's
		// CRC check fails instead of accepting a truncated shard.
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
}

// HTTPConn speaks the shard protocol to a shard-mode immserve replica at
// base ("http://host:port"). The client timeout is the net timeout: a
// replica that dies mid-query surfaces as *mpi.RankFailedError within it.
type HTTPConn struct {
	wireOps
	base   string
	slot   int
	client *http.Client
}

// NewHTTPConn dials the replica at base as fleet slot `slot`; timeout <= 0
// defaults to 30s.
func NewHTTPConn(base string, slot int, timeout time.Duration) *HTTPConn {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	hc := &HTTPConn{base: base, slot: slot, client: &http.Client{Timeout: timeout}}
	hc.wireOps = wireOps{hc.roundTrip}
	return hc
}

func (hc *HTTPConn) roundTrip(req request) ([]byte, error) {
	resp, err := hc.client.Post(hc.base+ShardOpPath, "application/octet-stream",
		bytes.NewReader(encodeRequest(req)))
	if err != nil {
		return nil, failedErr(hc.slot, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, failedErr(hc.slot, fmt.Errorf("shard answered %s: %s", resp.Status, bytes.TrimSpace(body)))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, failedErr(hc.slot, err)
	}
	return body, nil
}

func (hc *HTTPConn) Close() error {
	hc.client.CloseIdleConnections()
	return nil
}
