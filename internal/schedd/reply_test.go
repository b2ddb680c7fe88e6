package schedd

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/serve"
)

// checkAppendJSON fails unless r.AppendJSON, onto a non-empty buffer,
// appends exactly json.Marshal's bytes, or fails exactly when it fails.
func checkAppendJSON(t *testing.T, r serve.JSONAppender) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, err := r.AppendJSON([]byte("x"))
	if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%+v: AppendJSON error %v, json.Marshal error %v", r, err, wantErr)
	}
	if err == nil && string(got) != "x"+string(want) {
		t.Fatalf("%+v:\nAppendJSON   %s\njson.Marshal %s", r, got[1:], want)
	}
}

// randFloat draws the floats a reply can carry: ordinary times and gains,
// zeros, values at and past both 'e' cut-offs, arbitrary bit patterns and,
// rarely, a NaN or an infinity.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return rng.Float64() * 1e-6 * math.Pow(10, -float64(rng.Intn(12)))
	case 2:
		return 1e21 * (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(5)))
	case 3:
		return math.Float64frombits(rng.Uint64())
	case 4:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-6, 1e21, math.Copysign(0, -1)}[rng.Intn(6)]
	}
	return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
}

// randString is a mode or level name, or now and then a string that needs
// escaping.
func randString(rng *rand.Rand) string {
	names := []string{"sic", "solo", "serial", "blossom", "greedy", "", "<b>&", "tab\t\"q\"", "é", "\xff", "\u2028"}
	return names[rng.Intn(len(names))]
}

// randSchedReply draws a SCHED reply with n slots; a zero n draws nil
// slots half the time.
func randSchedReply(rng *rand.Rand, n int) SchedReply {
	r := SchedReply{AP: rng.Uint32(), Level: randString(rng), Clients: rng.Intn(1<<20) - 1<<10,
		TotalMS: randFloat(rng), Gain: randFloat(rng), ElapsMS: randFloat(rng)}
	if n > 0 || rng.Intn(2) == 0 {
		r.Slots = make([]Slot, n)
	}
	for i := range r.Slots {
		r.Slots[i] = Slot{Mode: randString(rng), A: rng.Uint32(), MS: randFloat(rng)}
		if rng.Intn(3) > 0 {
			r.Slots[i].B, r.Slots[i].Scale = uint32(rng.Intn(3))*rng.Uint32(), randFloat(rng)
		}
	}
	return r
}

// goldenReplies are TestReplyGoldenBytes' SCHED and error replies.
var goldenReplies = []serve.JSONAppender{
	SchedReply{AP: 7, Level: "blossom", Clients: 3, TotalMS: 1.2345678901234567, Gain: 1.5,
		Slots: []Slot{{Mode: "sic", A: 1, B: 2, Scale: 0.25, MS: 0.5}, {Mode: "serial", A: 3, MS: 1e-7}}, ElapsMS: 0.042},
	SchedReply{AP: 9, Level: "serial", Clients: 1, TotalMS: 2, Gain: 1,
		Slots: []Slot{{Mode: "solo", A: 4, MS: 2}}, ElapsMS: 1e21},
	serve.ErrorReply{Error: "no fresh reports for ap 3"},
	serve.ErrorReply{Error: "overloaded", RetryAfterMS: 100},
}

// TestSchedReplyAppendJSONMatchesMarshal: the golden replies and 20,000
// random ones — nil and empty slots, omitted and present b and scale,
// floats at the 'e' cut-offs, escaped strings, NaN and infinities — encode
// to json.Marshal's bytes, or fail where it fails.
func TestSchedReplyAppendJSONMatchesMarshal(t *testing.T) {
	for _, r := range goldenReplies {
		checkAppendJSON(t, r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkAppendJSON(t, randSchedReply(rng, rng.Intn(5)))
	}
}

// TestSchedReplyAppendJSONAllocs: encoding a 32-slot reply into a reused
// buffer allocates nothing.
func TestSchedReplyAppendJSONAllocs(t *testing.T) {
	r := servingReply(32)
	buf, _ := r.AppendJSON(nil)
	if n := testing.AllocsPerRun(100, func() { buf, _ = r.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON allocates %v times per reply, want 0", n)
	}
}

// servingReply is a blossom reply of n slots, pairs and one solo, shaped
// like a shard's answer for a 2n-station AP.
func servingReply(n int) SchedReply {
	rng := rand.New(rand.NewSource(2))
	r := SchedReply{AP: 17, Level: "blossom", Clients: 2*n - 1, ElapsMS: 0.087}
	for i := 0; i < n; i++ {
		s := Slot{Mode: "sic", A: 1000 + uint32(2*i), B: 1001 + uint32(2*i), Scale: rng.Float64(), MS: rng.Float64()}
		if i == n-1 {
			s = Slot{Mode: "solo", A: 1000 + uint32(2*i), MS: rng.Float64()}
		}
		r.Slots = append(r.Slots, s)
		r.TotalMS += s.MS
	}
	r.Gain = 1.37
	return r
}

func BenchmarkSchedReplyEncode(b *testing.B) {
	r := servingReply(32)
	buf, _ := r.AppendJSON(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = r.AppendJSON(buf[:0])
	}
}

// FuzzSchedReplyEncode: a SCHED reply built from arbitrary fields — one
// pair slot, one solo slot, and nil slots — and an error reply encode to
// json.Marshal's bytes, or fail where it fails.
func FuzzSchedReplyEncode(f *testing.F) {
	f.Add(uint32(7), "blossom", 3, 1.2345678901234567, 1.5, "sic", uint32(1), uint32(2), 0.25, 0.5, 1e-7, "no fresh reports for ap 3", int64(0))
	f.Add(uint32(9), "serial", 1, 2.0, 1.0, "solo", uint32(4), uint32(0), 0.0, 2.0, 1e21, "overloaded", int64(100))
	f.Add(uint32(0), "<&>", -1, math.Inf(1), math.NaN(), "\u2028\xff", ^uint32(0), uint32(3), math.Copysign(0, -1), 9.999999999999999e20, 5e-324, "gateway overloaded", int64(-50))
	f.Fuzz(func(t *testing.T, ap uint32, level string, clients int, totalMS, gain float64,
		mode string, a, b uint32, scale, ms, elapsed float64, msg string, retry int64) {
		r := SchedReply{AP: ap, Level: level, Clients: clients, TotalMS: totalMS, Gain: gain, ElapsMS: elapsed}
		checkAppendJSON(t, r)
		r.Slots = []Slot{{Mode: mode, A: a, B: b, Scale: scale, MS: ms}, {Mode: level, A: b, MS: elapsed}}
		checkAppendJSON(t, r)
		checkAppendJSON(t, serve.ErrorReply{Error: msg, RetryAfterMS: retry})
	})
}
