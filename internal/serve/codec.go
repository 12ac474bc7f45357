package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The request decoder below is a hand-written parser of the two request
// bodies' fixed fields. It accepts and rejects exactly what encoding/json
// does when it decodes the body into the request struct under
// DisallowUnknownFields, with the object as the only value in the body,
// and it stores the same values; FuzzDecodeDecideRequest holds it to
// that against encoding/json. Neither it nor AppendDecideResponse
// allocates on an accepted request.

// field is one member a request object may have: its JSON name and the
// request field that stores its number, an int (i) or a float64 (f).
type field struct {
	name string
	i    *int
	f    *float64
}

// maxFieldName bounds the folded key a field name can match; it is the
// length of the longest name, est_page_cpu. TestFieldTablesMatchTags
// fails if a field name outgrows it.
const maxFieldName = 12

var errEnd = errors.New("unexpected end of JSON input")

// syntaxError reports the byte at data[p] as invalid where it stands.
func syntaxError(data []byte, p int) error {
	if p >= len(data) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q at offset %d", data[p], p)
}

// skipSpace returns the index of the first byte at or after p that is not
// JSON whitespace.
func skipSpace(data []byte, p int) int {
	for p < len(data) && (data[p] == ' ' || data[p] == '\t' || data[p] == '\r' || data[p] == '\n') {
		p++
	}
	return p
}

// parseObject parses data as one JSON object, with only whitespace around
// it, whose members are fields and whose values are numbers or null. It
// stores each number in its field as it reads it, so the last of
// duplicate keys wins, and leaves a field alone for null. It rejects
// everything else: an unknown key, a string, bool, object or array
// value, a fraction, exponent or out-of-range number for an int field, a
// float outside float64. encoding/json rejects each of these whatever
// the rest of the body holds, so the parser stops at the first one.
func parseObject(data []byte, fields []field) error {
	p := skipSpace(data, 0)
	if p == len(data) || data[p] != '{' {
		return errors.New("expected a JSON object")
	}
	p = skipSpace(data, p+1)
	if p < len(data) && data[p] == '}' {
		p++
	} else {
		for {
			if p == len(data) || data[p] != '"' {
				return syntaxError(data, p)
			}
			f, end, err := matchKey(data, p+1, fields)
			if err != nil {
				return err
			}
			key := data[p:end]
			p = skipSpace(data, end)
			if p == len(data) || data[p] != ':' {
				return syntaxError(data, p)
			}
			if p, err = storeValue(data, skipSpace(data, p+1), f); err != nil {
				return fmt.Errorf("field %s: %w", key, err)
			}
			p = skipSpace(data, p)
			if p < len(data) && data[p] == '}' {
				p++
				break
			}
			if p == len(data) || data[p] != ',' {
				return syntaxError(data, p)
			}
			p = skipSpace(data, p+1)
		}
	}
	if p = skipSpace(data, p); p != len(data) {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// matchKey reads the key string whose first byte after the opening quote
// is data[p] and returns its field and the index just past the closing
// quote. Like encoding/json, it matches the key after unescaping it and
// folding its runes as bytes.EqualFold does, so "CLASS" and "claſs" both
// name class.
func matchKey(data []byte, p int, fields []field) (*field, int, error) {
	start := p
	var key [maxFieldName]byte // the key folded to lower-case ASCII
	n := 0
	known := true
	for {
		if p == len(data) {
			return nil, p, errEnd
		}
		c := data[p]
		var r rune
		switch {
		case c == '"':
			if known {
				for i := range fields {
					if string(key[:n]) == fields[i].name {
						return &fields[i], p + 1, nil
					}
				}
			}
			return nil, p, fmt.Errorf("unknown field %s", data[start-1:p+1])
		case c < ' ':
			return nil, p, syntaxError(data, p)
		case c == '\\':
			var size int
			if r, size = unescape(data[p:]); size == 0 {
				return nil, p, syntaxError(data, p)
			}
			p += size
		case c < utf8.RuneSelf:
			r = rune(c)
			p++
		default:
			var size int
			r, size = utf8.DecodeRune(data[p:])
			p += size
		}
		if r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		switch {
		case r >= utf8.RuneSelf || n == len(key):
			known = false
		case 'A' <= r && r <= 'Z':
			key[n] = byte(r) + 'a' - 'A'
			n++
		default:
			key[n] = byte(r)
			n++
		}
	}
}

// unescape decodes the escape sequence at the start of s and returns its
// rune and length, or a zero length if the escape is invalid. A UTF-16
// surrogate decodes as utf8.RuneError: alone or paired, it stands for a
// rune outside ASCII, which no field name holds.
func unescape(s []byte) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch c := s[1]; c {
	case '"', '\\', '/':
		return rune(c), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(s) < 6 {
			return 0, 0
		}
		var r rune
		for _, h := range s[2:6] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return 0, 0
			}
			r = r<<4 | rune(h)
		}
		if 0xD800 <= r && r < 0xE000 {
			r = utf8.RuneError
		}
		return r, 6
	}
	return 0, 0
}

// foldRune is the rune encoding/json compares in place of a non-ASCII r
// when it matches a key to a field name case-insensitively: the smallest
// rune that r case-folds to. Only ſ (to S) and the Kelvin sign (to K)
// fold into ASCII.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// storeValue reads the value starting at data[p] into f and returns the
// index just past it. Its errors do not name the field: reading f.name
// into one would make the request escape to the heap through f.i and
// f.f.
func storeValue(data []byte, p int, f *field) (int, error) {
	if p == len(data) {
		return p, errEnd
	}
	switch c := data[p]; {
	case c == 'n':
		if len(data)-p < 4 || string(data[p:p+4]) != "null" {
			return p, syntaxError(data, p)
		}
		return p + 4, nil
	case c == '-' || '0' <= c && c <= '9':
		end, err := scanNumber(data, p)
		if err != nil {
			return end, err
		}
		lit := data[p:end]
		if f.i != nil {
			n, ok := parseInt(lit)
			if !ok {
				return end, fmt.Errorf("%s is not an int", lit)
			}
			*f.i = n
			return end, nil
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return end, err
		}
		*f.f = v
		return end, nil
	}
	return p, errors.New("value is not a number")
}

// scanNumber returns the index just past the JSON number starting at
// data[p]: an optional minus, an integer part without leading zeros, an
// optional fraction and an optional exponent, each with at least one
// digit.
func scanNumber(data []byte, p int) (int, error) {
	if data[p] == '-' {
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		p = skipDigits(data, p+1)
	default:
		return p, syntaxError(data, p)
	}
	if p < len(data) && data[p] == '.' {
		q := skipDigits(data, p+1)
		if q == p+1 {
			return q, syntaxError(data, q)
		}
		p = q
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		q := skipDigits(data, p)
		if q == p {
			return q, syntaxError(data, q)
		}
		p = q
	}
	return p, nil
}

// skipDigits returns the index of the first non-digit at or after p.
func skipDigits(data []byte, p int) int {
	for p < len(data) && '0' <= data[p] && data[p] <= '9' {
		p++
	}
	return p
}

// parseInt converts a JSON number to an int as strconv.ParseInt would:
// false for a fraction, an exponent or a value outside int.
func parseInt(lit []byte) (int, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range lit {
		d := uint64(c - '0')
		if d > 9 || u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	// For the magnitude of math.MinInt, int(u) wraps to math.MinInt and
	// so does its negation.
	n := int(u)
	if neg {
		n = -n
	}
	return n, true
}

// AppendDecideResponse appends r to dst as json.NewEncoder(w).Encode(r)
// writes it: a compact object and a newline. Mode and Policy go between
// plain quotes: they are "policy" or "fallback" and a policy.Kind name,
// letters that encoding/json writes unescaped.
func AppendDecideResponse(dst []byte, r DecideResponse) []byte {
	dst = append(dst, `{"site":`...)
	dst = strconv.AppendInt(dst, int64(r.Site), 10)
	dst = append(dst, `,"mode":"`...)
	dst = append(dst, r.Mode...)
	dst = append(dst, `","policy":"`...)
	dst = append(dst, r.Policy...)
	return append(dst, "\"}\n"...)
}
