package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// The /v1/events ingest path reads each request body into a pooled
// buffer and parses it into a pooled batch. Buffers above these bounds
// are left to the garbage collector, so one oversized request cannot pin
// its memory in the pools.
const (
	maxPooledBody   = 1 << 20
	maxPooledEvents = maxPooledBody / 64 // an Event is 64 bytes
)

var (
	bodyPool  = sync.Pool{New: func() any { return new([]byte) }}
	eventPool = sync.Pool{New: func() any { return new([]Event) }}
)

// readBody appends everything r yields to buf, growing it as needed,
// and returns the bytes together with the first error other than io.EOF.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeEvents decodes a /v1/events body exactly as
// json.NewDecoder(body).Decode(&events) does on a fresh slice, where the
// body is the bytes read followed by readErr (nil for a clean EOF).
// Complete bodies in the canonical form json.Marshal([]Event) emits are
// parsed directly into buf's backing array; every other body, a body cut
// short by a read error (the oversize bound included), and every error
// go through encoding/json, so the accepted bodies, the decoded events
// and the error texts are those of the reflection decoder.
func decodeEvents(body []byte, readErr error, buf []Event) ([]Event, error) {
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	} else if events, ok := parseEvents(body, buf); ok {
		return events, nil
	}
	var events []Event
	err := json.NewDecoder(src).Decode(&events)
	return events, err
}

// errReader replays a body read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseEvents parses body into buf[:0] when body is canonical: optional
// whitespace around `null`, or around an array of objects whose keys are
// the exact Event JSON tags, whose kind is a plain string (ASCII with
// no control bytes or escapes), whose device/station/server are JSON integers that
// fit an int, and whose value/task/data are JSON numbers that fit a
// float64. It reports false for any other body, which the caller hands
// to encoding/json. Known kinds map to their constants and an unknown
// kind is copied out of body, so the events never alias it.
func parseEvents(body []byte, buf []Event) ([]Event, bool) {
	s := scanner{b: body}
	s.space()
	if s.literal("null") {
		s.space()
		return nil, s.i == len(s.b)
	}
	if !s.eat('[') {
		return nil, false
	}
	out := buf[:0]
	if out == nil {
		out = []Event{} // `[]` decodes to an empty, non-nil slice
	}
	s.space()
	if !s.eat(']') {
		for {
			ev, ok := s.event()
			if !ok {
				return nil, false
			}
			out = append(out, ev)
			s.space()
			if s.eat(',') {
				s.space()
				continue
			}
			if s.eat(']') {
				break
			}
			return nil, false
		}
	}
	s.space()
	return out, s.i == len(s.b)
}

// scanner is parseEvents' cursor over a request body.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes lit if the body continues with it.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// event parses one `{...}` object, the cursor on its opening brace.
// Missing keys leave zero fields and a repeated key's last value wins,
// as in encoding/json.
func (s *scanner) event() (ev Event, ok bool) {
	if !s.eat('{') {
		return ev, false
	}
	s.space()
	if s.eat('}') {
		return ev, true
	}
	for {
		key, ok := s.plainString()
		if !ok {
			return ev, false
		}
		s.space()
		if !s.eat(':') {
			return ev, false
		}
		s.space()
		switch string(key) {
		case "kind":
			var k []byte
			if k, ok = s.plainString(); ok {
				ev.Kind = kindOf(k)
			}
		case "device":
			ev.Device, ok = s.integer()
		case "station":
			ev.Station, ok = s.integer()
		case "server":
			ev.Server, ok = s.integer()
		case "value":
			ev.Value, ok = s.float()
		case "task":
			ev.Task, ok = s.float()
		case "data":
			ev.Data, ok = s.float()
		default:
			return ev, false
		}
		if !ok {
			return ev, false
		}
		s.space()
		if s.eat(',') {
			s.space()
			continue
		}
		return ev, s.eat('}')
	}
}

// plainString consumes a string of ASCII with no control bytes or
// escapes and returns its contents, which alias the body.
func (s *scanner) plainString() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	b, start := s.b, s.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// kindOf returns the Kind constant spelled k, or a copy of k for a kind
// this build does not know (validate sheds those at tick time).
func kindOf(k []byte) Kind {
	switch string(k) {
	case "price":
		return KindPrice
	case "demand":
		return KindDemand
	case "channel":
		return KindChannel
	case "fronthaul":
		return KindFronthaul
	case "device-join":
		return KindDeviceJoin
	case "device-leave":
		return KindDeviceLeave
	case "handover":
		return KindHandover
	case "server-add":
		return KindServerAdd
	case "server-remove":
		return KindServerRemove
	case "server-down":
		return KindServerDown
	case "server-up":
		return KindServerUp
	case "cap-scale":
		return KindCapScale
	}
	return Kind(k)
}

// digits consumes a run of ASCII digits and returns how many it took.
func (s *scanner) digits() int {
	b, start := s.b, s.i
	i := start
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	s.i = i
	return i - start
}

// intPart consumes the `-?(0|[1-9][0-9]*)` head of a JSON number.
func (s *scanner) intPart() bool {
	s.eat('-')
	if s.eat('0') {
		return true
	}
	return s.i < len(s.b) && s.b[s.i] >= '1' && s.b[s.i] <= '9' && s.digits() > 0
}

// integer consumes a JSON number with no fraction or exponent that fits
// an int — the numbers encoding/json stores into an int field.
func (s *scanner) integer() (int, bool) {
	start := s.i
	if !s.intPart() {
		return 0, false
	}
	if s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		return 0, false
	}
	lit := s.b[start:s.i]
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		n, err := strconv.ParseInt(string(s.b[start:s.i]), 10, strconv.IntSize)
		return int(n), err == nil
	}
	var n int64
	for _, c := range lit {
		n = 10*n + int64(c-'0')
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// float consumes a JSON number and parses it as encoding/json does for a
// float64 field; it reports false when the literal is out of range.
func (s *scanner) float() (float64, bool) {
	start := s.i
	if !s.intPart() {
		return 0, false
	}
	if s.eat('.') && s.digits() == 0 {
		return 0, false
	}
	if s.eat('e') || s.eat('E') {
		if !s.eat('+') {
			s.eat('-')
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return v, err == nil
}
