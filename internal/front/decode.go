package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"influmax/internal/graph"
)

// maxBody caps every request body but /v1/seeds, whose cap grows with n
// (seedsBodyCap).
const maxBody = 1 << 20

// seedsBodyCap is the /v1/seeds body cap over n vertices: 1 MiB plus 8
// bytes a vertex, room for a dense costs vector of numbers up to 7
// characters long ("2.5," is 4 bytes) beside the other fields.
func seedsBodyCap(n int) int64 { return maxBody + 8*int64(n) }

// bodies recycles the buffers request bodies are read into; a decoded
// request keeps no reference to its buffer.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Decode reads r's JSON body, capped at 1 MiB, into the zero value v; a
// failure is a BadRequest.
func Decode(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeCapped(w, r, v, maxBody)
}

// decodeCapped reads the body once, into a pooled buffer grown first to
// a Content-Length within limit, and decodes those bytes.
func decodeCapped(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	if size := r.ContentLength; size > 0 && size <= limit {
		buf.Grow(int(size) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = unmarshal(buf.Bytes(), v)
	}
	if buf.Cap() <= maxBody {
		bodies.Put(buf)
	}
	if err != nil {
		return BadRequest(fmt.Errorf("bad request body: %s", clipped(err.Error())))
	}
	return nil
}

// clipped is a decoder's error message cut to its first 256 characters,
// with its length, when longer: encoding/json quotes a number literal it
// rejects whole, and a body may be most of a megabyte of one.
func clipped(msg string) string {
	if len(msg) <= 256 {
		return msg
	}
	return fmt.Sprintf("%.256s... (%d bytes)", msg, len(msg))
}

// unmarshal is json.Unmarshal into the zero value v — the same accept or
// reject and the same value for every body — with the common bodies of
// the two query routes scanned by hand in one pass. A body the scanner
// does not take as it stands goes to json.Unmarshal, which also words
// every error.
func unmarshal(b []byte, v any) error {
	switch v := v.(type) {
	case *SeedsRequest:
		if scanSeeds(b, v) {
			return nil
		}
	case *SpreadRequest:
		if scanSpread(b, v) {
			return nil
		}
	}
	return json.Unmarshal(b, v)
}

// scanSeeds fills r from b and reports true only when b is one JSON
// object whose keys are distinct, among those serve traffic sends (k,
// budget, costs, audience, blocked), spelled exactly as their tags, and
// whose values are of the field's own type and not null. Anything else —
// an override or stream included — is false and leaves r untouched.
func scanSeeds(b []byte, r *SeedsRequest) bool {
	var out SeedsRequest
	s := scanner{b: b}
	ok := s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "k":
			k, ok := s.integer()
			out.K = k
			return 0, ok
		case "budget":
			return 1, s.floatPtr(&out.Budget)
		case "costs":
			return 2, s.floats(&out.Costs)
		case "audience":
			out.Audience = new([]graph.Vertex)
			return 3, s.vertices(out.Audience)
		case "blocked":
			out.Blocked = new([]graph.Vertex)
			return 4, s.vertices(out.Blocked)
		}
		return 0, false
	})
	if ok {
		*r = out
	}
	return ok
}

// scanSpread is scanSeeds for SpreadRequest's seeds and audience.
func scanSpread(b []byte, r *SpreadRequest) bool {
	var out SpreadRequest
	s := scanner{b: b}
	ok := s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "seeds":
			return 0, s.vertices(&out.Seeds)
		case "audience":
			return 1, s.vertices(&out.Audience)
		}
		return 0, false
	})
	if ok {
		*r = out
	}
	return ok
}

// scanner walks one body. Each method consumes one token or value after
// any whitespace, and returns false on anything outside the subset of
// JSON it takes; a false leaves the body to json.Unmarshal.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
	}
}

// next consumes c if it is the next non-space byte.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object takes the whole body as one object with nothing after it but
// whitespace. field decodes the value of key and returns the key's bit,
// so a repeated key is refused.
func (s *scanner) object(field func(key []byte) (uint, bool)) bool {
	if !s.next('{') {
		return false
	}
	if !s.next('}') {
		var seen uint
		for {
			key, ok := s.key()
			if !ok || !s.next(':') {
				return false
			}
			bit, ok := field(key)
			if !ok || seen&(1<<bit) != 0 {
				return false
			}
			seen |= 1 << bit
			if s.next('}') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.skipSpace()
	return s.i == len(s.b)
}

// key takes a string of lower-case ASCII letters: no escape and nothing
// json.Unmarshal could fold onto a field's name.
func (s *scanner) key() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && 'a' <= s.b[s.i] && s.b[s.i] <= 'z' {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	return s.b[start : s.i-1], true
}

// digits reads the run of decimal digits at b[i:] and returns its value
// and end; the value is only meaningful for at most 19 digits.
func digits(b []byte, i int) (uint64, int) {
	var m uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	return m, i
}

// magnitude takes the digits of an integer literal of at most max, the
// whitespace and any sign before them consumed: json.Unmarshal's rule for
// an integer field, no fraction, no exponent, in range.
func (s *scanner) magnitude(max uint64) (uint64, bool) {
	b, start := s.b, s.i
	m, i := digits(b, start)
	s.i = i
	if n := i - start; n == 0 || n > 19 || (n > 1 && b[start] == '0') || m > max {
		return 0, false
	}
	return m, i == len(b) || (b[i] != '.' && b[i] != 'e' && b[i] != 'E')
}

// integer takes an integer literal that fits an int.
func (s *scanner) integer() (int, bool) {
	s.skipSpace()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	m, ok := s.magnitude(math.MaxInt)
	if neg {
		return -int(m), ok
	}
	return int(m), ok
}

// pow10 holds the powers of ten a float64 represents exactly, up to the
// fast path's 15 fraction digits.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// number takes a JSON number as json.Unmarshal reads it into a float64.
// A literal of at most 15 digits with no exponent is m/10^f with m and
// 10^f exact in a float64, so the one division is correctly rounded
// (Clinger's fast path, which strconv takes too); anything else goes to
// strconv.ParseFloat, and one it rejects (out of range) is left to
// json.Unmarshal.
func (s *scanner) number() (float64, bool) {
	s.skipSpace()
	b, start := s.b, s.i
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	m, end := digits(b, i)
	n := end - i
	if n == 0 || (n > 1 && b[i] == '0') {
		return 0, false
	}
	frac := 0
	if end < len(b) && b[end] == '.' {
		var f uint64
		f, i = digits(b, end+1)
		if frac = i - end - 1; frac == 0 {
			return 0, false
		}
		if frac <= 15 {
			m = m*uint64(pow10[frac]) + f
		}
		end = i
	}
	exact := n+frac <= 15
	if end < len(b) && (b[end] == 'e' || b[end] == 'E') {
		i = end + 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if _, end = digits(b, i); end == i {
			return 0, false
		}
		exact = false
	}
	s.i = end
	if !exact {
		x, err := strconv.ParseFloat(string(b[start:end]), 64)
		return x, err == nil
	}
	x := float64(m) / pow10[frac]
	if neg {
		x = -x
	}
	return x, true
}

func (s *scanner) floatPtr(p **float64) bool {
	x, ok := s.number()
	*p = &x
	return ok
}

// array takes '[', then elem once per element, then ']'. An empty array
// is a non-nil empty slice, as json.Unmarshal leaves it; any other is
// allocated once, at the length the commas before the first ']' give.
func array[T any](s *scanner, p *[]T, elem func() (T, bool)) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		*p = []T{}
		return true
	}
	// s.i is now past any whitespace after '[', so end counts from there.
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return false
	}
	out := make([]T, 0, bytes.Count(s.b[s.i:s.i+end], []byte{','})+1)
	for {
		x, ok := elem()
		if !ok {
			return false
		}
		out = append(out, x)
		if s.next(']') {
			*p = out
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

func (s *scanner) floats(p *[]float64) bool { return array(s, p, s.number) }

// vertices takes vertex ids: integer literals in uint32's range.
func (s *scanner) vertices(p *[]graph.Vertex) bool {
	return array(s, p, func() (graph.Vertex, bool) {
		s.skipSpace()
		v, ok := s.magnitude(math.MaxUint32)
		return graph.Vertex(v), ok
	})
}
