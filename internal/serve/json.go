package serve

import (
	"encoding/json"
	"math"
	"strconv"
)

// JSONAppender is a reply that encodes itself. AppendJSON appends exactly
// the bytes json.Marshal produces for the value, and fails where
// json.Marshal fails (a NaN or infinite float). The query loop writes a
// reply that implements it through one reused buffer per connection, and
// every other reply through a json.Encoder.
type JSONAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// AppendJSON encodes the error reply as json.Marshal does.
func (r ErrorReply) AppendJSON(dst []byte) ([]byte, error) {
	dst = AppendString(append(dst, `{"error":`...), r.Error)
	if r.RetryAfterMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"retry_after_ms":`...), r.RetryAfterMS, 10)
	}
	return append(dst, '}'), nil
}

// AppendString appends s as a JSON string, escaped as encoding/json
// escapes it (HTML-safe). A string of printable ASCII that needs no escape
// is copied as is; any other string goes through json.Marshal.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json formats a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 with a one-digit negative
// exponent unpadded. A NaN or infinity fails as json.Marshal fails.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendArray appends xs as a JSON array of its elements' AppendJSON
// bytes, or null when xs is nil, as json.Marshal encodes a slice.
func AppendArray[T JSONAppender](dst []byte, xs []T) ([]byte, error) {
	if xs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = x.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}
