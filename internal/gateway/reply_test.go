package gateway

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schedd"
	"repro/internal/serve"
)

// checkDecode fails unless decode leaves what json.Unmarshal into a zero
// shardReply leaves, and returns the same error.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var got, want shardReply
	err := got.decode(data)
	wantErr := json.Unmarshal(data, &want)
	if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%q: decode error %v, json.Unmarshal error %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\ndecode         %+v\njson.Unmarshal %+v", data, got, want)
	}
}

// randSlots draws n slots as a shard emits them; n < 0 draws nil.
func randSlots(rng *rand.Rand, n int) []schedd.Slot {
	if n < 0 {
		return nil
	}
	slots := make([]schedd.Slot, n)
	for i := range slots {
		slots[i] = schedd.Slot{Mode: "solo", A: rng.Uint32(), MS: rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(30)-15))}
		if rng.Intn(4) > 0 {
			slots[i].Mode, slots[i].B, slots[i].Scale = []string{"sic", "serial"}[rng.Intn(2)], rng.Uint32(), rng.Float64()
		}
	}
	return slots
}

// shardReplies are replies as shards write them: the golden SCHED and
// error replies of TestReplyGoldenBytes, an empty and a nil slot array,
// and random replies from a 64-station AP.
func shardReplies(rng *rand.Rand, random int) [][]byte {
	replies := []any{
		schedd.SchedReply{AP: 7, Level: "blossom", Clients: 3, TotalMS: 1.2345678901234567, Gain: 1.5,
			Slots: []schedd.Slot{{Mode: "sic", A: 1, B: 2, Scale: 0.25, MS: 0.5}, {Mode: "serial", A: 3, MS: 1e-7}}, ElapsMS: 0.042},
		schedd.SchedReply{AP: 9, Level: "serial", Clients: 1, TotalMS: 2, Gain: 1,
			Slots: []schedd.Slot{{Mode: "solo", A: 4, MS: 2}}, ElapsMS: 1e21},
		schedd.SchedReply{AP: 1, Level: "greedy", Slots: []schedd.Slot{}},
		schedd.SchedReply{AP: math.MaxUint32, Level: "odd level"},
		serve.ErrorReply{Error: "no fresh reports for ap 3"},
		serve.ErrorReply{Error: "overloaded", RetryAfterMS: 100},
		serve.ErrorReply{},
	}
	for i := 0; i < random; i++ {
		replies = append(replies, schedd.SchedReply{AP: rng.Uint32(), Level: "blossom", Clients: rng.Intn(65),
			TotalMS: rng.Float64() * 20, Gain: 1 + rng.Float64(), Slots: randSlots(rng, rng.Intn(34)-1), ElapsMS: rng.Float64()})
	}
	var out [][]byte
	for _, r := range replies {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// TestShardReplyDecodeMatchesUnmarshal: canonical shard replies decode as
// json.Unmarshal decodes them, and so does every variant off the canonical
// shape — reordered, unknown, differently cased or duplicated keys,
// whitespace, escapes, non-ASCII, bad or out-of-range numbers, missing
// fields, trailing bytes and every truncation of the first ten replies —
// which takes the fallback.
func TestShardReplyDecodeMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	replies := shardReplies(rng, 300)
	for i, b := range replies {
		checkDecode(t, b)
		for n := 0; i < 10 && n < len(b); n++ {
			checkDecode(t, b[:n])
		}
	}
	gold := string(replies[0])
	for _, variant := range []string{
		`{"level":"blossom","ap":7}`,
		strings.Replace(gold, `"ap":7`, `"AP":7`, 1),
		strings.Replace(gold, `"ap":7`, `"ap":7,"ap":8`, 1),
		strings.Replace(gold, `"gain"`, `"extra":[1,{"x":null}],"gain"`, 1),
		strings.Replace(gold, `,"gain"`, ` , "gain"`, 1),
		strings.Replace(gold, `"sic"`, `"s\u0069c"`, 1),
		strings.Replace(gold, `"blossom"`, `"blössom"`, 1),
		strings.Replace(gold, `"blossom"`, "\"bl\xffssom\"", 1),
		strings.Replace(gold, `"sic"`, "\"s\xed\xa0\x80c\"", 1),
		strings.Replace(gold, `"ap":7`, `"ap":4294967296`, 1),
		strings.Replace(gold, `"ap":7`, `"ap":-7`, 1),
		strings.Replace(gold, `"ap":7`, `"ap":07`, 1),
		strings.Replace(gold, `"ap":7`, `"ap":7.0`, 1),
		strings.Replace(gold, `"clients":3`, `"clients":99999999999999999999`, 1),
		strings.Replace(gold, `"clients":3`, `"clients":9223372036854775807`, 1),
		strings.Replace(gold, `"clients":3`, `"clients":9223372036854775808`, 1),
		`{"error":"x","retry_after_ms":9999999999999999999}`,
		strings.Replace(gold, `"gain":1.5`, `"gain":1e400`, 1),
		strings.Replace(gold, `"gain":1.5`, `"gain":1.5E+2`, 1),
		strings.Replace(gold, `"gain":1.5`, `"gain":-0`, 1),
		strings.Replace(gold, `"gain":1.5`, `"gain":1.`, 1),
		strings.Replace(gold, `"gain":1.5`, `"gain":"1.5"`, 1),
		strings.Replace(gold, `"level":"blossom"`, `"level":null`, 1),
		strings.Replace(gold, `"b":2,`, `"b":0,`, 1),
		strings.Replace(gold, `,"scale":0.25`, ``, 1),
		strings.Replace(gold, `"slots":[`, `"slots":[ `, 1),
		strings.Replace(gold, `}],`, `},],`, 1),
		gold + " ",
		gold + "\n",
		gold + "{}",
		` ` + gold,
		`{"error":"overloaded","retry_after_ms":0}`,
		`{"error":"overloaded","retry_after_ms":-5}`,
		`{"retry_after_ms":5,"error":"overloaded"}`,
		`{"error":"a\"b"}`,
		`{"error":"tab	inside"}`,
		`{"error":"x","ap":3}`,
		`{"Error":"x"}`,
		`null`, `[]`, `{}`, `""`, ``,
	} {
		checkDecode(t, []byte(variant))
	}
}

// TestShardReplyDecodeAllocs: a canonical SCHED reply decodes with one
// allocation, its slot slice, since mode and level names come from the
// fixed set shards emit; a reply without slots decodes with none.
func TestShardReplyDecodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		reply schedd.SchedReply
		max   float64
	}{
		{schedd.SchedReply{AP: 3, Level: "blossom", Clients: 64, Slots: randSlots(rand.New(rand.NewSource(2)), 32), ElapsMS: 0.1}, 1},
		{schedd.SchedReply{AP: 3, Level: "serial"}, 0},
	} {
		b, err := json.Marshal(tc.reply)
		if err != nil {
			t.Fatal(err)
		}
		var r shardReply
		if n := testing.AllocsPerRun(100, func() { r = shardReply{}; _ = r.decode(b) }); n > tc.max {
			t.Fatalf("decoding %d slots allocates %v times, want at most %v", len(tc.reply.Slots), n, tc.max)
		}
		if !reflect.DeepEqual(r.SchedReply, tc.reply) {
			t.Fatalf("decoded %+v, want %+v", r.SchedReply, tc.reply)
		}
	}
}

// randResponse draws a merged reply: slots, parts with every omitempty
// flag, and floats that reach both 'e' cut-offs.
func randResponse(rng *rand.Rand) schedResponse {
	r := schedResponse{AP: rng.Uint32(), Degraded: rng.Intn(2) == 0, Epoch: rng.Uint64(), Clients: rng.Intn(129),
		TotalMS: rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-20)), Gain: rng.Float64(),
		Slots: randSlots(rng, rng.Intn(6)-1), ElapsMS: math.Float64frombits(rng.Uint64() >> 2)}
	if n := rng.Intn(4) - 1; n >= 0 {
		r.Shards = make([]shardPart, n)
		for i := range r.Shards {
			r.Shards[i] = shardPart{Shard: []string{"shard-a", "shard-<b>", "é"}[rng.Intn(3)], Clients: rng.Intn(65),
				Hedged: rng.Intn(2) == 0, Shadow: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				r.Shards[i].Level = "blossom"
			} else {
				r.Shards[i].Error = "gateway: shard shard-c: \"timeout\" & more"
			}
		}
	}
	return r
}

// TestGatewayReplyAppendJSONMatchesMarshal: the golden merged replies and
// 5,000 random ones encode to json.Marshal's bytes, and a NaN fails as
// json.Marshal fails.
func TestGatewayReplyAppendJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	replies := []schedResponse{
		{AP: 5, Degraded: true, Epoch: 3, Clients: 3, TotalMS: 2.75, Gain: 1.25,
			Slots: []schedd.Slot{{Mode: "sic", A: 1, B: 2, Scale: 0.5, MS: 1.25}, {Mode: "serial", A: 3, MS: 1.5}},
			Shards: []shardPart{{Shard: "shard-a", Level: "blossom", Clients: 2}, {Shard: "shard-b", Clients: 1, Hedged: true, Shadow: true, Level: "greedy"},
				{Shard: "shard-c", Error: "gateway: shard shard-c: timeout"}},
			ElapsMS: 0.125},
		{AP: 6, Degraded: true, Epoch: 1, ElapsMS: 0.001},
		{Gain: math.NaN()},
		{Slots: []schedd.Slot{{MS: math.Inf(1)}}},
	}
	for i := 0; i < 5000; i++ {
		replies = append(replies, randResponse(rng))
	}
	for _, r := range replies {
		want, wantErr := json.Marshal(r)
		got, err := r.AppendJSON([]byte("x"))
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%+v: AppendJSON error %v, json.Marshal error %v", r, err, wantErr)
		}
		if err == nil && string(got) != "x"+string(want) {
			t.Fatalf("%+v:\nAppendJSON   %s\njson.Marshal %s", r, got[1:], want)
		}
	}
}

// servingResponse is a healthy merged reply for a 64-station AP on two
// shards.
func servingResponse() schedResponse {
	rng := rand.New(rand.NewSource(4))
	r := schedResponse{AP: 17, Epoch: 1, Clients: 64, Gain: 1.37, Slots: randSlots(rng, 32), ElapsMS: 0.41,
		Shards: []shardPart{{Shard: "shard-0", Level: "blossom", Clients: 32}, {Shard: "shard-1", Level: "blossom", Clients: 32}}}
	for _, s := range r.Slots {
		r.TotalMS += s.MS
	}
	return r
}

// TestGatewayReplyAppendJSONAllocs: encoding a merged reply into a reused
// buffer allocates nothing.
func TestGatewayReplyAppendJSONAllocs(t *testing.T) {
	r := servingResponse()
	buf, _ := r.AppendJSON(nil)
	if n := testing.AllocsPerRun(100, func() { buf, _ = r.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON allocates %v times per reply, want 0", n)
	}
}

func BenchmarkShardReplyDecode(b *testing.B) {
	data, err := json.Marshal(schedd.SchedReply{AP: 17, Level: "blossom", Clients: 64, TotalMS: 9.5, Gain: 1.37,
		Slots: randSlots(rand.New(rand.NewSource(5)), 32), ElapsMS: 0.087})
	if err != nil {
		b.Fatal(err)
	}
	var r shardReply
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = shardReply{}
		if err := r.decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatewayReplyEncode(b *testing.B) {
	r := servingResponse()
	buf, _ := r.AppendJSON(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = r.AppendJSON(buf[:0])
	}
}

// FuzzShardReplyDecode: for arbitrary bytes, decode leaves what
// json.Unmarshal leaves and returns its error. Seeds: the canonical shard
// replies, error replies with retry_after_ms, reordered keys and
// whitespace.
func FuzzShardReplyDecode(f *testing.F) {
	for _, b := range shardReplies(rand.New(rand.NewSource(6)), 3) {
		f.Add(b)
	}
	f.Add([]byte(`{"retry_after_ms":50,"error":"gateway overloaded"}`))
	f.Add([]byte(`{"level":"blossom","ap":7,"clients":0,"total_ms":0,"gain":0,"slots":null,"elapsed_ms":0}`))
	f.Add([]byte(` { "ap" : 7 , "level" : "blossom" , "slots" : [ { "mode" : "sic" , "a" : 1 } ] } `))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}
