package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// assignRequest is the POST /assign body: the registry key of a model and
// the rows to score. encoding/json names the type in its error messages.
// The values are pointers so that a null value stays nil instead of
// reading as 0.
type assignRequest struct {
	Model string       `json:"model"`
	Rows  [][]*float64 `json:"rows"`
}

// DecodeAssign parses a POST /assign body, {"model":"<key>","rows":[[…],…]}.
// It returns the model key, the rows' values appended in row-major order to
// rows[:0], and one length per row appended to lens[:0], so a caller that
// passes the returned slices back in reuses their memory. An error is the
// one encoding/json gives for the body.
//
// Bodies in the shape clients send (no escapes, keys spelled exactly, plain
// numbers) are scanned in place with one strconv.ParseFloat per value, the
// call encoding/json makes for a float64, so every value keeps its bits. Any
// other body — escapes, case-folded or duplicate keys, null, unknown fields,
// a number ParseFloat refuses — is decoded by encoding/json over the same
// bytes, so both kinds answer exactly as encoding/json does, except that a
// null row value is an error rather than 0.
func DecodeAssign(body []byte, rows []float64, lens []int) (string, []float64, []int, error) {
	key, rows, lens, ok := parseAssign(body, rows[:0], lens[:0])
	if ok {
		return key, rows, lens, nil
	}
	return decodeAssignJSON(body, rows[:0], lens[:0])
}

// decodeAssignJSON is DecodeAssign's general path: encoding/json with
// unknown fields refused, reading the first JSON value of the body. A null
// row value is refused; a null row is a row of no values.
func decodeAssignJSON(body []byte, rows []float64, lens []int) (string, []float64, []int, error) {
	var req assignRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", rows, lens, err
	}
	for i, row := range req.Rows {
		for j, v := range row {
			if v == nil {
				return "", rows, lens, fmt.Errorf("row %d value %d is null, not a number", i, j)
			}
			rows = append(rows, *v)
		}
		lens = append(lens, len(row))
	}
	return req.Model, rows, lens, nil
}

// parseAssign is DecodeAssign's fast path. It accepts one object holding the
// keys "model" and "rows" once each, in either order, with optional JSON
// whitespace between tokens and nothing but whitespace after the object.
// The model must be a string with no escape, no control byte and valid
// UTF-8 (which encoding/json returns unchanged); rows must be [] or an
// array of arrays of JSON numbers. It reports false for anything else,
// returning the buffers so the general path can reuse them.
func parseAssign(body []byte, rows []float64, lens []int) (string, []float64, []int, bool) {
	s := scanner{b: body}
	var model []byte
	haveModel, haveRows := false, false
	if !s.consume('{') {
		return "", rows, lens, false
	}
	for {
		name, ok := s.str()
		if !ok || !s.consume(':') {
			return "", rows, lens, false
		}
		switch {
		case string(name) == "model" && !haveModel:
			model, ok = s.str()
			haveModel = true
		case string(name) == "rows" && !haveRows:
			rows, lens, ok = s.rows(rows, lens)
			haveRows = true
		default:
			ok = false
		}
		if !ok {
			return "", rows, lens, false
		}
		if s.consume('}') {
			break
		}
		if !s.consume(',') {
			return "", rows, lens, false
		}
	}
	s.space()
	if !haveModel || !haveRows || s.i != len(s.b) {
		return "", rows, lens, false
	}
	return string(model), rows, lens, true
}

// scanner walks a byte slice for parseAssign.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string token and returns its bytes between the quotes. It
// refuses escapes, control bytes and invalid UTF-8, each of which
// encoding/json would decode to different bytes or reject.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c == '"' {
			v := s.b[start:s.i]
			s.i++
			return v, utf8.Valid(v)
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
	}
	return nil, false
}

// rows scans [] or an array of arrays of numbers, appending every value to
// rows and every inner array's length to lens.
func (s *scanner) rows(rows []float64, lens []int) ([]float64, []int, bool) {
	if !s.consume('[') {
		return rows, lens, false
	}
	if s.consume(']') {
		return rows, lens, true
	}
	for {
		if !s.consume('[') {
			return rows, lens, false
		}
		n := 0
		if !s.consume(']') {
			for {
				v, ok := s.number()
				if !ok {
					return rows, lens, false
				}
				rows = append(rows, v)
				n++
				if s.consume(']') {
					break
				}
				if !s.consume(',') {
					return rows, lens, false
				}
			}
		}
		lens = append(lens, n)
		if s.consume(']') {
			return rows, lens, true
		}
		if !s.consume(',') {
			return rows, lens, false
		}
	}
}

// number scans one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and parses it as
// encoding/json does for a float64. Whatever follows is left to the caller,
// which accepts only a delimiter, so "01" and "1x" are refused there.
func (s *scanner) number() (float64, bool) {
	s.space()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return 0, false
		}
	}
	s.i = i
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, err == nil
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
