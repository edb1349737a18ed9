package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"influmax/internal/graph"
)

// The shard wire protocol: one request/response codec shared by the HTTP
// transport (POST /v1/shard/op bodies) and the mpi.Comm transport
// (ServeComm message payloads), so the two paths cannot drift. All
// integers are little-endian; vertices and sample decrements are uint32,
// coverage counts int64 (they are summed across shards).

// Shard operations.
const (
	opInfo  byte = 1 // -> ShardInfo
	opStart byte = 2 // session id -> dense per-vertex coverage counts
	opPurge byte = 3 // session id + seed vertex -> sparse decrements
	opEnd   byte = 4 // session id -> ack
	// session id + audience list -> dense counts over audience-rooted
	// samples + the eligible count; later purges skip the rest.
	opStartFiltered byte = 5
	opSpread        byte = 6 // seed list + audience list -> (covered, eligible)
)

// Response status bytes.
const (
	statusOK   byte = 0
	statusFail byte = 1
)

// ShardInfo identifies one shard and the sketch configuration it was
// sampled under. The router validates that every shard of a fleet agrees
// on everything except ShardIdx before serving.
type ShardInfo struct {
	ShardIdx    int     `json:"shardIdx"`
	ShardCount  int     `json:"shardCount"`
	Epoch       uint64  `json:"epoch"`
	Samples     int     `json:"samples"`
	NumVertices int     `json:"numVertices"`
	GraphDigest uint64  `json:"graphDigest"`
	Model       uint8   `json:"model"`
	Epsilon     float64 `json:"epsilon"`
	KMax        int     `json:"kMax"`
	Seed        uint64  `json:"seed"`
	Theta       int64   `json:"theta"`
}

// DecPair is one sparse purge decrement: seed selection subtracts Dec
// from vertex V's merged coverage count.
type DecPair struct {
	V   graph.Vertex
	Dec uint32
}

// request is one decoded shard operation. seeds and audience are the
// vertex-list payloads of the query-diversity ops (audience doubles as
// the filter of opStartFiltered; an empty audience on opSpread means no
// filter).
type request struct {
	op       byte
	session  uint64
	vertex   graph.Vertex
	seeds    []graph.Vertex
	audience []graph.Vertex
}

func appendVerts(buf []byte, vs []graph.Vertex) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// takeVerts decodes one length-prefixed vertex list, returning the rest of
// the buffer. The claimed count is validated against the bytes actually
// present before any allocation, so a hostile length cannot force one.
func takeVerts(b []byte) ([]graph.Vertex, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("cluster: truncated vertex list")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < 4*n {
		return nil, nil, fmt.Errorf("cluster: vertex list claims %d entries, carries %d bytes", n, len(b))
	}
	vs := make([]graph.Vertex, n)
	for i := range vs {
		vs[i] = graph.Vertex(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs, b[4*n:], nil
}

func encodeRequest(r request) []byte {
	buf := make([]byte, 0, 13+4*(len(r.seeds)+len(r.audience))+8)
	buf = append(buf, r.op)
	switch r.op {
	case opStart, opEnd:
		buf = binary.LittleEndian.AppendUint64(buf, r.session)
	case opPurge:
		buf = binary.LittleEndian.AppendUint64(buf, r.session)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.vertex))
	case opStartFiltered:
		buf = binary.LittleEndian.AppendUint64(buf, r.session)
		buf = appendVerts(buf, r.audience)
	case opSpread:
		buf = appendVerts(buf, r.seeds)
		buf = appendVerts(buf, r.audience)
	}
	return buf
}

func decodeRequest(b []byte) (request, error) {
	if len(b) < 1 {
		return request{}, fmt.Errorf("cluster: empty request")
	}
	r := request{op: b[0]}
	rest := b[1:]
	switch r.op {
	case opInfo:
		if len(rest) != 0 {
			return request{}, fmt.Errorf("cluster: info request carries %d trailing bytes", len(rest))
		}
	case opStart, opEnd:
		if len(rest) != 8 {
			return request{}, fmt.Errorf("cluster: op %d wants an 8-byte session id, got %d bytes", r.op, len(rest))
		}
		r.session = binary.LittleEndian.Uint64(rest)
	case opPurge:
		if len(rest) != 12 {
			return request{}, fmt.Errorf("cluster: purge wants session id + vertex (12 bytes), got %d", len(rest))
		}
		r.session = binary.LittleEndian.Uint64(rest)
		r.vertex = graph.Vertex(binary.LittleEndian.Uint32(rest[8:]))
	case opStartFiltered:
		if len(rest) < 8 {
			return request{}, fmt.Errorf("cluster: filtered start wants a session id, got %d bytes", len(rest))
		}
		r.session = binary.LittleEndian.Uint64(rest)
		var err error
		if r.audience, rest, err = takeVerts(rest[8:]); err != nil {
			return request{}, err
		}
		if len(rest) != 0 {
			return request{}, fmt.Errorf("cluster: filtered start carries %d trailing bytes", len(rest))
		}
	case opSpread:
		var err error
		if r.seeds, rest, err = takeVerts(rest); err != nil {
			return request{}, err
		}
		if r.audience, rest, err = takeVerts(rest); err != nil {
			return request{}, err
		}
		if len(rest) != 0 {
			return request{}, fmt.Errorf("cluster: spread request carries %d trailing bytes", len(rest))
		}
	default:
		return request{}, fmt.Errorf("cluster: unknown op %d", r.op)
	}
	return r, nil
}

// encodeErrorResp wraps a shard-side failure (unknown session, malformed
// request) for the wire. Transport-level failures never reach this path —
// they surface as mpi.RankFailedError on the router.
func encodeErrorResp(msg string) []byte {
	buf := make([]byte, 0, 3+len(msg))
	buf = append(buf, statusFail)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(min(len(msg), 1<<16-1)))
	return append(buf, msg[:min(len(msg), 1<<16-1)]...)
}

func encodeInfoResp(info ShardInfo) []byte {
	buf := make([]byte, 0, 70)
	buf = append(buf, statusOK)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(info.ShardIdx))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(info.ShardCount))
	buf = binary.LittleEndian.AppendUint64(buf, info.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(info.Samples))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(info.NumVertices))
	buf = binary.LittleEndian.AppendUint64(buf, info.GraphDigest)
	buf = append(buf, info.Model)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(info.Epsilon))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(info.KMax))
	buf = binary.LittleEndian.AppendUint64(buf, info.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(info.Theta))
	return buf
}

func encodeCountsResp(counts []int64) []byte {
	return appendCounts(append(make([]byte, 0, 5+8*len(counts)), statusOK), counts)
}

// appendCounts appends a length-prefixed list of coverage counts.
func appendCounts(buf []byte, counts []int64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(counts)))
	for _, c := range counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	return buf
}

func encodeDecsResp(pairs []DecPair) []byte {
	buf := make([]byte, 0, 5+8*len(pairs))
	buf = append(buf, statusOK)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pairs)))
	for _, p := range pairs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.V))
		buf = binary.LittleEndian.AppendUint32(buf, p.Dec)
	}
	return buf
}

// encodeFilteredCountsResp answers opStartFiltered: the eligible
// (audience-rooted) sample count, then the dense per-vertex counts over
// exactly those samples.
func encodeFilteredCountsResp(counts []int64, eligible int64) []byte {
	buf := append(make([]byte, 0, 13+8*len(counts)), statusOK)
	return appendCounts(binary.LittleEndian.AppendUint64(buf, uint64(eligible)), counts)
}

// encodeSpreadResp answers opSpread: covered and eligible sample counts.
func encodeSpreadResp(covered, eligible int64) []byte {
	buf := make([]byte, 0, 17)
	buf = append(buf, statusOK)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(covered))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(eligible))
	return buf
}

func encodeAckResp() []byte { return []byte{statusOK} }

// checkResp strips the status byte, converting a statusFail envelope into
// an error.
func checkResp(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("cluster: empty response")
	}
	switch b[0] {
	case statusOK:
		return b[1:], nil
	case statusFail:
		if len(b) < 3 {
			return nil, fmt.Errorf("cluster: truncated error response")
		}
		l := int(binary.LittleEndian.Uint16(b[1:]))
		if len(b) < 3+l {
			return nil, fmt.Errorf("cluster: truncated error response")
		}
		return nil, fmt.Errorf("cluster: shard error: %s", b[3:3+l])
	default:
		return nil, fmt.Errorf("cluster: unknown response status %d", b[0])
	}
}

func decodeInfoResp(b []byte) (ShardInfo, error) {
	body, err := checkResp(b)
	if err != nil {
		return ShardInfo{}, err
	}
	if len(body) != 61 {
		return ShardInfo{}, fmt.Errorf("cluster: info response is %d bytes, want 61", len(body))
	}
	var info ShardInfo
	info.ShardIdx = int(binary.LittleEndian.Uint32(body))
	info.ShardCount = int(binary.LittleEndian.Uint32(body[4:]))
	info.Epoch = binary.LittleEndian.Uint64(body[8:])
	info.Samples = int(binary.LittleEndian.Uint32(body[16:]))
	info.NumVertices = int(binary.LittleEndian.Uint32(body[20:]))
	info.GraphDigest = binary.LittleEndian.Uint64(body[24:])
	info.Model = body[32]
	info.Epsilon = math.Float64frombits(binary.LittleEndian.Uint64(body[33:]))
	info.KMax = int(binary.LittleEndian.Uint32(body[41:]))
	info.Seed = binary.LittleEndian.Uint64(body[45:])
	info.Theta = int64(binary.LittleEndian.Uint64(body[53:]))
	return info, nil
}

func decodeCountsResp(b []byte) ([]int64, error) {
	body, err := checkResp(b)
	if err != nil {
		return nil, err
	}
	return takeCounts(body, "counts")
}

// takeCounts decodes a length-prefixed count list that must fill body
// exactly.
func takeCounts(body []byte, what string) ([]int64, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("cluster: truncated %s response", what)
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if len(body) != 8*n {
		return nil, fmt.Errorf("cluster: %s response claims %d entries, carries %d bytes", what, n, len(body))
	}
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return counts, nil
}

func decodeDecsResp(b []byte) ([]DecPair, error) {
	body, err := checkResp(b)
	if err != nil {
		return nil, err
	}
	if len(body) < 4 {
		return nil, fmt.Errorf("cluster: truncated decrement response")
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if len(body) != 8*n {
		return nil, fmt.Errorf("cluster: decrement response claims %d pairs, carries %d bytes", n, len(body))
	}
	pairs := make([]DecPair, n)
	for i := range pairs {
		pairs[i].V = graph.Vertex(binary.LittleEndian.Uint32(body[8*i:]))
		pairs[i].Dec = binary.LittleEndian.Uint32(body[8*i+4:])
	}
	return pairs, nil
}

func decodeFilteredCountsResp(b []byte) ([]int64, int64, error) {
	body, err := checkResp(b)
	if err == nil && len(body) < 8 {
		err = fmt.Errorf("cluster: truncated filtered-counts response")
	}
	if err != nil {
		return nil, 0, err
	}
	counts, err := takeCounts(body[8:], "filtered-counts")
	return counts, int64(binary.LittleEndian.Uint64(body)), err
}

func decodeSpreadResp(b []byte) (covered, eligible int64, err error) {
	body, err := checkResp(b)
	if err != nil {
		return 0, 0, err
	}
	if len(body) != 16 {
		return 0, 0, fmt.Errorf("cluster: spread response is %d bytes, want 16", len(body))
	}
	return int64(binary.LittleEndian.Uint64(body)), int64(binary.LittleEndian.Uint64(body[8:])), nil
}

func decodeAckResp(b []byte) error {
	_, err := checkResp(b)
	return err
}
