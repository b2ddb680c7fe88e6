package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// marshal is the reference encoding: json.Marshal's bytes and error text.
func marshal(v any) (string, string) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err.Error()
	}
	return string(b), ""
}

// appended is AppendJSON's bytes and error text, onto a non-empty dst so
// an appender that ignores dst is caught.
func appended(a JSONAppender) (string, string) {
	b, err := a.AppendJSON([]byte("prefix"))
	if !strings.HasPrefix(string(b), "prefix") {
		return "", "dst prefix lost"
	}
	if err != nil {
		return "", err.Error()
	}
	return string(b[len("prefix"):]), ""
}

// floatReply encodes one float through AppendFloat.
type floatReply float64

func (f floatReply) AppendJSON(dst []byte) ([]byte, error) { return AppendFloat(dst, float64(f)) }

// stringReply encodes one string through AppendString.
type stringReply string

func (s stringReply) AppendJSON(dst []byte) ([]byte, error) { return AppendString(dst, string(s)), nil }

// TestAppendersMatchMarshal: floats at and around the 'e' cut-offs, with
// one- and three-digit exponents, signed zeros and non-finite values;
// strings needing every kind of escape; error replies with and without
// retry_after_ms; nil and empty arrays — each equal to json.Marshal's
// bytes, or failing with its error.
func TestAppendersMatchMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.999999999999999e-7, -1e-7, 1e-9,
		1e-10, 1e-100, 1e-300, 5e-324, 1e20, 1e21, -1e21, 9.99999999999999e20, 1.2345678901234567e25, 1e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.123, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range floats {
		gotB, gotE := appended(floatReply(f))
		wantB, wantE := marshal(f)
		if gotB != wantB || gotE != wantE {
			t.Fatalf("AppendFloat(%v) = %q, %q; json.Marshal = %q, %q", f, gotB, gotE, wantB, wantE)
		}
	}
	for _, s := range []string{"", "blossom", "no fresh reports for ap 3", `quote " and \ backslash`,
		"<html> & </html>", "a<b", "a>b", "a&b", "tab\tnewline\n\x00\x1f\x7f", "héllo", "  ", "bad \xff utf-8", "\xed\xa0\x80"} {
		gotB, _ := appended(stringReply(s))
		if wantB, _ := marshal(s); gotB != wantB {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, gotB, wantB)
		}
	}
	for _, r := range []ErrorReply{{}, {Error: "overloaded", RetryAfterMS: 100}, {Error: "<x>", RetryAfterMS: -3}} {
		gotB, gotE := appended(r)
		if wantB, wantE := marshal(r); gotB != wantB || gotE != wantE {
			t.Fatalf("%+v.AppendJSON = %q, %q; json.Marshal = %q, %q", r, gotB, gotE, wantB, wantE)
		}
	}
	for _, xs := range [][]floatReply{nil, {}, {1}, {1, 2.5, 1e-9}, {1, floatReply(math.NaN())}} {
		got, gotErr := AppendArray(nil, xs)
		wantB, wantE := marshal(xs)
		if gotErr != nil {
			if wantE != gotErr.Error() {
				t.Fatalf("AppendArray(%v) failed with %v, json.Marshal with %q", xs, gotErr, wantE)
			}
			continue
		}
		if string(got) != wantB {
			t.Fatalf("AppendArray(%v) = %s, json.Marshal = %s", xs, got, wantB)
		}
	}
}

// TestAppenderReplyWrite: a JSONAppender reply goes out as its AppendJSON
// bytes plus a newline, any other reply through json.Encoder, and a reply
// whose encoding fails writes nothing and hangs up, as json.Encoder's
// failure does.
func TestAppenderReplyWrite(t *testing.T) {
	l, _ := start(t, Config{Command: func(fields []string) (any, bool) {
		switch fields[0] {
		case "ERR":
			return ErrorReply{Error: "overloaded <now>", RetryAfterMS: 50}, false
		case "NAN":
			return floatReply(math.NaN()), false
		}
		return fields[0], false
	}})
	c := dial(t, l)
	for _, tc := range []struct{ cmd, want string }{
		{"ERR", `{"error":"overloaded \u003cnow\u003e","retry_after_ms":50}` + "\n"},
		{"PLAIN", `"PLAIN"` + "\n"},
		{"ERR", `{"error":"overloaded \u003cnow\u003e","retry_after_ms":50}` + "\n"},
	} {
		c.send(t, tc.cmd)
		if got := c.line(t); got != tc.want {
			t.Fatalf("%s answered %q, want %q", tc.cmd, got, tc.want)
		}
	}
	c.send(t, "NAN")
	c.expectEOF(t)
}
