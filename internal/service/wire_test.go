package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The codec's tests hold it to encoding/json from both sides: values are
// built by reflection (so a new field is exercised the day it is added)
// and must encode to json.Marshal's bytes; bytes must decode to
// json.Unmarshal's value or be declined.

// Values the generator draws from: every class of string, number and time
// on which a hand-written encoder could part ways with encoding/json.
var (
	wireStrings = []string{
		"", "sim", "j000042", "site-3", "a b", "<script>", "a&b", `say "hi"`, `back\slash`,
		"\x00", "\x1f", "line\nbreak", "tab\t", "\x7f", "\xff\xfe", "café", "\u2028", "\u2029",
		"日本", "trailing,", strings.Repeat("x", 300),
	}
	wireFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 100, 1e6, 123456789.125,
		1e-6, 9.99e-7, 1e-7, -1e-7, 1e20, 9.999999999999999e20, 1e21, -1e21, 1e300,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	wireInts  = []int64{0, 1, -1, 7, 1000, 12e9, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, 1 << 53}
	wireTimes = []time.Time{
		{},
		time.Unix(1700000000, 0).UTC(),
		time.Unix(1700000000, 123456789).UTC(),
		time.Unix(1700000000, 120000000).UTC(),
		time.Unix(1700000000, 0),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2023, 10, 24, 9, 30, 0, 0, time.FixedZone("", 7*3600)),
		time.Date(2023, 10, 24, 9, 30, 0, 5, time.FixedZone("x", -(3*3600+1800))),
		time.Date(2023, 10, 24, 9, 30, 0, 0, time.FixedZone("", 53*60+28)),
		time.Date(2023, 10, 24, 9, 30, 0, 0, time.FixedZone("", 25*3600)),
		time.Date(2023, 10, 24, 9, 30, 0, 0, time.FixedZone("", -100*3600)),
	}
)

// wireGen builds values from a byte string: each byte picks from a table
// or, when it is large, makes the following bytes the value itself. An
// exhausted string yields zeros, so a short input is a mostly empty value.
type wireGen struct {
	data []byte
	n    int64 // values handed out
}

func (g *wireGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *wireGen) take(n int) []byte {
	n = min(n, len(g.data))
	b := g.data[:n]
	g.data = g.data[n:]
	return b
}

func (g *wireGen) bits() uint64 {
	var b [8]byte
	copy(b[:], g.take(8))
	return binary.LittleEndian.Uint64(b[:])
}

func (g *wireGen) str() string {
	if b := int(g.byte()); b < 200 {
		return wireStrings[b%len(wireStrings)]
	} else {
		return string(g.take(b - 200))
	}
}

func (g *wireGen) float() float64 {
	if b := int(g.byte()); b < 200 {
		return wireFloats[b%len(wireFloats)]
	}
	return math.Float64frombits(g.bits())
}

func (g *wireGen) int() int64 {
	if b := int(g.byte()); b < 200 {
		return wireInts[b%len(wireInts)]
	}
	return int64(g.bits())
}

func (g *wireGen) time() time.Time {
	if b := int(g.byte()); b < 200 {
		return wireTimes[b%len(wireTimes)]
	}
	return time.Unix(int64(g.bits())>>20, int64(g.byte())).In(time.FixedZone("", int(int16(g.bits()))))
}

// fill sets every field under v from the byte string. With full set it
// draws nothing: every field gets a value that is plain, not zero and
// unlike any other field's, and every pointer a target.
func (g *wireGen) fill(v reflect.Value, full bool) {
	g.n++
	switch v.Kind() {
	case reflect.String:
		if v.SetString(g.str()); full {
			v.SetString(fmt.Sprintf("field-%d", g.n))
		}
	case reflect.Int, reflect.Int64:
		if v.SetInt(g.int()); full {
			v.SetInt(g.n)
		}
	case reflect.Uint64:
		if v.SetUint(uint64(g.int())); full {
			v.SetUint(uint64(g.n))
		}
	case reflect.Float64:
		if v.SetFloat(g.float()); full {
			v.SetFloat(float64(g.n) + 0.5)
		}
	case reflect.Bool:
		v.SetBool(full || g.byte()&1 == 1)
	case reflect.Pointer:
		if full || g.byte()&1 == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			g.fill(v.Elem(), full)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			g.fill(v.Index(i), full)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			if v.Set(reflect.ValueOf(g.time())); full {
				v.Set(reflect.ValueOf(time.Unix(1700000000+g.n, 5).UTC()))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			g.fill(v.Field(i), full)
		}
	default:
		panic(fmt.Sprintf("wireGen: no generator for %s — a new kind of field needs one, and the codec a case", v.Type()))
	}
}

// checkEncode requires the codec's bytes for v (a Job, []Job,
// BatchStatusResponse, *BatchRequest or *record) to be json.Marshal's, or
// both to refuse.
func checkEncode(t *testing.T, v any) []byte {
	t.Helper()
	want, wantErr := json.Marshal(v)
	var got []byte
	var ok bool
	prefix := []byte("prefix ")
	if r, isRecord := v.(*record); isRecord {
		var err error
		got, err = appendRecord(prefix, r)
		ok = err == nil
	} else {
		got, ok = appendWire(prefix, v)
	}
	if ok != (wantErr == nil) {
		t.Fatalf("codec encoded=%v, json.Marshal error %v, for %+v", ok, wantErr, v)
	}
	if !ok {
		return nil
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("codec wrote\n%s\njson.Marshal\n%s", got, want)
	}
	return want
}

// checkDecode requires, for each type the codec reads, that p decodes to
// json.Unmarshal's value or is declined, and is declined whenever
// json.Unmarshal fails. It returns how many of the types accepted p.
func checkDecode(t *testing.T, p []byte) (accepted int) {
	t.Helper()
	check := func(got, want any, ok bool) {
		t.Helper()
		err := json.Unmarshal(p, want)
		switch {
		case !ok:
			if zero := reflect.New(reflect.TypeOf(got).Elem()).Interface(); !reflect.DeepEqual(got, zero) {
				t.Fatalf("declined %q but left %+v behind", p, got)
			}
		case err != nil:
			t.Fatalf("codec accepted %q into %T, json.Unmarshal: %v", p, got, err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("codec read %q as\n%+v\njson.Unmarshal\n%+v", p, got, want)
		default:
			accepted++
		}
	}
	var j Job
	check(&j, new(Job), unmarshalWire(p, &j))
	var js []Job
	check(&js, new([]Job), unmarshalWire(p, &js))
	var st BatchStatusResponse
	check(&st, new(BatchStatusResponse), unmarshalWire(p, &st))
	var br BatchRequest
	check(&br, new(BatchRequest), unmarshalWire(p, &br))

	// A record has no declined outcome to observe: the journal reader's
	// decoder falls back itself, so it must simply agree with
	// json.Unmarshal.
	var r, want record
	err, wantErr := (&wireDec{ck: newChunkState()}).record(p, &r), json.Unmarshal(p, &want)
	if (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(r, want)) {
		t.Fatalf("record(%q) = %+v, %v; json.Unmarshal %+v, %v", p, r, err, want, wantErr)
	}
	d := wireDec{p: p}
	if object(&d, recordFields, new(record)); d.whole() {
		accepted++
	}
	return accepted
}

// checkWire runs both directions on one input: data as the recipe for a
// job, a record, a page, a status response and a batch request, and data
// as raw bytes.
func checkWire(t *testing.T, data []byte) {
	t.Helper()
	g := &wireGen{data: data}
	var j Job
	g.fill(reflect.ValueOf(&j).Elem(), false)
	var r record
	g.fill(reflect.ValueOf(&r).Elem(), false)
	page := make([]Job, int(g.byte())%3, 3) // empty but not nil, or one or two jobs
	for i := range page {
		g.fill(reflect.ValueOf(&page[i]).Elem(), false)
	}
	st := BatchStatusResponse{Jobs: page}
	for n := int(g.byte()) % 3; n > 0; n-- {
		st.Missing = append(st.Missing, g.str())
	}
	batch := &BatchRequest{Specs: make([]Spec, int(g.byte())%3, 3)}
	for i := range batch.Specs {
		g.fill(reflect.ValueOf(&batch.Specs[i]).Elem(), false)
	}
	for _, v := range []any{j, &r, page, []Job(nil), st, BatchStatusResponse{}, batch, &BatchRequest{}} {
		if p := checkEncode(t, v); p != nil {
			checkDecode(t, p)
		}
	}
	checkDecode(t, data)
}

// wireSampleJob is a finished fleet job as campaign_bulk's follower pages
// it.
func wireSampleJob(i int) Job {
	at := time.Unix(1700000000, int64(i)*1000).UTC()
	return Job{
		ID:  fmt.Sprintf("j%06d", i+1),
		Seq: uint64(i + 1),
		Spec: Spec{
			Backend:    BackendSim,
			ServerPair: fmt.Sprintf("site-%d", i%8),
			Seed:       int64(i % 8),
			Sim:        &SimJob{App: "zoom", Duration: 12 * time.Second},
			Fleet:      &FleetMeta{Campaign: "replay", Session: i, ISP: i % 12, Server: i % 8},
		},
		State:       StateDone,
		Attempts:    1,
		Resumed:     i%2 == 0,
		SubmittedAt: at,
		StartedAt:   at.Add(time.Millisecond),
		FinishedAt:  at.Add(2 * time.Millisecond),
		Result:      &Result{Backend: BackendSim, WeHeDetected: true, Confirmed: true, LocalizedToISP: i%12 == 2},
	}
}

// wireDecodeSeeds are inputs outside (or on the edge of) the language the
// encoder writes: each must be declined or read as encoding/json reads it.
func wireDecodeSeeds(t testing.TB) [][]byte {
	job, err := json.Marshal(wireSampleJob(7))
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		job,
		[]byte(`{"id":"j1","seq":1,"spec":{"backend":"sim","seed":3},"state":"queued","attempts":0}`),
		[]byte(`{"seq":1,"id":"j1","attempts":2,"state":"done","spec":{"seed":3,"backend":"sim"}}`), // reordered
		[]byte(`{ "id":"j1"}`), []byte(`{"id" :"j1"}`), []byte(`{"id": "j1"}`), []byte("{\"id\":\"j1\"}\n"), []byte(` {"id":"j1"}`),
		[]byte(`{"id":"j1","extra":1}`), []byte(`{"id":"j1","":1}`),
		[]byte(`{"id":"j1","id":"j2"}`), []byte(`{"spec":{"sim":{"app":"a"}},"spec":{"sim":{"bg_share":1}}}`),
		[]byte(`{"spec":{"sim":{"app":"a"},"sim":{"bg_share":1}}}`),
		[]byte(`{"ID":"j1"}`), []byte(`{"Id":"j1","id":"j2"}`), []byte(`{"SEQ":4}`), []byte(`{"id":"j1"}`),
		[]byte(`{"id":null}`), []byte(`{"spec":null}`), []byte(`{"result":null}`), []byte(`{"started_at":null}`), []byte(`null`),
		[]byte(`{"spec":{"sim":null}}`), []byte(`{"result":{"loss_rates":null}}`),
		[]byte(`{"attempts":1.0}`), []byte(`{"attempts":1e3}`), []byte(`{"attempts":-0}`), []byte(`{"attempts":01}`), []byte(`{"attempts":-}`),
		[]byte(`{"seq":-1}`), []byte(`{"seq":18446744073709551615}`), []byte(`{"seq":18446744073709551616}`),
		[]byte(`{"attempts":9223372036854775807}`), []byte(`{"attempts":9223372036854775808}`), []byte(`{"attempts":-9223372036854775808}`),
		[]byte(`{"result":{"loss_rates":[0.1,0.2]}}`), []byte(`{"result":{"loss_rates":[0.1]}}`), []byte(`{"result":{"loss_rates":[1,2,3]}}`),
		[]byte(`{"result":{"loss_rates":[]}}`), []byte(`{"result":{"loss_rates":[-0,1E+2]}}`), []byte(`{"result":{"loss_rates":[1e999,0]}}`),
		[]byte(`{"result":{"loss_rates":[.5,1.]}}`), []byte(`{"result":{"loss_rates":[0x10,Inf]}}`), []byte(`{"result":{"loss_rates":[1_0,+1]}}`),
		[]byte(`{"result":{"loss_rates":[1e-7,1e+21]}}`), []byte(`{"result":{"loss_rates":[5e-324,00]}}`),
		[]byte(`{"result":{"confirmed":True}}`), []byte(`{"result":{"confirmed":"true"}}`), []byte(`{"result":{"confirmed":1}}`), []byte(`{"resumed":false}`),
		[]byte(`{"id":"a\"b"}`), []byte(`{"id":"a<b"}`), []byte(`{"id":"café"}`), []byte("{\"id\":\"caf\xc3\xa9\"}"), []byte("{\"id\":\"\xff\"}"),
		[]byte("{\"id\":\"a\tb\"}"), []byte(`{"id":"a<b>&c"}`), []byte(`{"id":"😀"}`), []byte(`{"id":"\ud83d"}`),
		[]byte(`{"started_at":"2023-10-24T09:30:00Z"}`), []byte(`{"started_at":"2023-10-24T09:30:00.5+07:00"}`), []byte(`{"started_at":"2023-10-24 09:30:00Z"}`),
		[]byte(`{"started_at":"2023-10-24T09:30:00Z"}`), []byte(`{"started_at":17}`), []byte(`{"started_at":"10000-01-01T00:00:00Z"}`), []byte(`{"started_at":""}`),
		[]byte(`{"id":"j1",}`), []byte(`{,"id":"j1"}`), []byte(`{"id":"j1"}}`), []byte(`{"id":"j1"}{"id":"j1"}`), []byte(`{"id"}`), []byte(`{"id":}`), []byte(`{`), []byte(`{}`), nil,
		[]byte(`[]`), []byte(`[{}]`), []byte(`[{},]`), []byte(`[,{}]`), []byte(`[{} {}]`), []byte(`[{},{"id":"j2"}]`), []byte(`[null]`), []byte(`[[]]`), []byte(`[`),
		[]byte(`{"jobs":[],"missing":["j9","j8"]}`), []byte(`{"jobs":null}`), []byte(`{"jobs":[{}],"missing":[]}`), []byte(`{"missing":null}`), []byte(`{"missing":[1]}`), []byte(`{"missing":["a",]}`),
		[]byte(`{"op":"submit","id":"j000001","seq":1,"spec":{"backend":"sim","seed":0}}`), []byte(`{"op":"done","id":"j000001","result":{"backend":"sim","wehe_detected":true,"confirmed":true,"localized_to_isp":false,"evidence":"","loss_rates":[0,0]}}`),
		[]byte(`{"op":"fail","id":"j1","error":"boom"}`), []byte(`{"op":"cancel","id":"j1","seq":0}`), []byte(`{"op":7}`),
		[]byte(`{"specs":[{"backend":"sim","seed":3,"fleet":{"session":1,"isp":2,"server":0}},{"backend":"null","seed":0}]}`), []byte(`{"specs":[]}`), []byte(`{"specs":null}`),
		[]byte(`{"specs":[{}]}`), []byte(`{"specs":[{},]}`), []byte(`{"specs":[{}],"specs":[]}`), []byte(`{"Specs":[{}]}`), []byte(`{"specs":[{"seed":1.5}]}`), []byte(`{"specs":[{"backend":"a\u0062"}]} x`),
		[]byte(`{"specs":{}}`), []byte(`{"specs":[null]}`), []byte(`{"specs":[{"sim":{"app":"zoom","duration":12000000000}}]}` + "\n"),
	}
	for cut := 0; cut < len(job); cut++ { // truncated at every byte
		seeds = append(seeds, job[:cut])
	}
	return seeds
}

// TestWireMatchesEncodingJSON is the fuzz target's check over its seeds
// and 2 000 random recipes, so that plain `go test` holds the codec to
// encoding/json without a fuzzing run.
func TestWireMatchesEncodingJSON(t *testing.T) {
	for _, p := range wireDecodeSeeds(t) {
		checkWire(t, p)
	}
	for pick := 0; pick < 64; pick++ { // every table entry, in every field
		checkWire(t, bytes.Repeat([]byte{byte(pick)}, 256))
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		if i%2 == 0 { // mostly table draws, which reach the corners more often
			for k := range data {
				data[k] %= 210
			}
		}
		checkWire(t, data)
	}

	// The language is not empty: what the encoder writes for ordinary
	// values, the decoder reads without declining.
	page := make([]Job, 3)
	for i := range page {
		page[i] = wireSampleJob(i)
	}
	rec := record{Op: recDone, ID: "j000001", Result: page[0].Result}
	batch := &BatchRequest{Specs: []Spec{page[0].Spec, page[1].Spec}}
	for _, v := range []any{page[0], page, BatchStatusResponse{Jobs: page, Missing: []string{"j9"}}, &rec, batch} {
		if n := checkDecode(t, checkEncode(t, v)); n != 1 {
			t.Errorf("%T: %d of the codec's readers accepted its own encoding, want 1", v, n)
		}
	}
}

// FuzzWireMatchesEncodingJSON: (a) the input as a recipe for values — the
// codec's encoding is json.Marshal's byte for byte, or both refuse; (b) the
// input as bytes — the codec's value is json.Unmarshal's or it declines,
// and it declines whenever json.Unmarshal fails.
func FuzzWireMatchesEncodingJSON(f *testing.F) {
	for _, p := range wireDecodeSeeds(f) {
		f.Add(p)
	}
	for pick := 0; pick < 32; pick++ {
		f.Add(bytes.Repeat([]byte{byte(pick)}, 256))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkWire(t, data) })
}

// TestWireCoversEveryField fills every field of Job, record and a batch
// request's spec — and so of Spec, SimJob, TestbedJob, FleetMeta and
// Result — and requires the codec to write json.Marshal's bytes and to
// read them back, undeclined, as the value they came from. A field added
// to service.go without the codec fails here.
func TestWireCoversEveryField(t *testing.T) {
	g := new(wireGen)
	var j Job
	g.fill(reflect.ValueOf(&j).Elem(), true)
	var r record
	g.fill(reflect.ValueOf(&r).Elem(), true)
	batch := BatchRequest{Specs: make([]Spec, 2)}
	for i := range batch.Specs {
		g.fill(reflect.ValueOf(&batch.Specs[i]).Elem(), true)
	}

	var nonZero func(path string, v reflect.Value)
	nonZero = func(path string, v reflect.Value) {
		if v.IsZero() {
			t.Errorf("%s was left zero by the generator", path)
		}
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v.Kind() == reflect.Struct && v.Type() != reflect.TypeOf(time.Time{}) {
			for i := 0; i < v.NumField(); i++ {
				nonZero(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	}
	nonZero("Job", reflect.ValueOf(j))
	nonZero("record", reflect.ValueOf(r))
	nonZero("BatchRequest.Specs[1]", reflect.ValueOf(batch.Specs[1]))
	if n := reflect.TypeOf(batch).NumField(); n != 1 {
		t.Errorf("BatchRequest has %d fields, the codec knows one", n)
	}

	var back Job
	if p := checkEncode(t, j); !unmarshalWire(p, &back) {
		t.Errorf("the codec declined its own encoding of a full Job:\n%s", p)
	} else if !reflect.DeepEqual(back, j) {
		t.Errorf("Job came back as %+v, want %+v", back, j)
	}
	var backBatch BatchRequest
	if p := checkEncode(t, &batch); !unmarshalWire(p, &backBatch) {
		t.Errorf("the codec declined its own encoding of a full BatchRequest:\n%s", p)
	} else if !reflect.DeepEqual(backBatch, batch) {
		t.Errorf("BatchRequest came back as %+v, want %+v", backBatch, batch)
	}
	p := checkEncode(t, &r)
	d := wireDec{p: p}
	var backRec record
	if object(&d, recordFields, &backRec); !d.whole() {
		t.Errorf("the codec declined its own encoding of a full record:\n%s", p)
	} else if !reflect.DeepEqual(backRec, r) {
		t.Errorf("record came back as %+v, want %+v", backRec, r)
	}
}

// TestRequestDecodeAllocs pins what decoding one request body costs in
// allocations: a POST /jobs body (one spec, which the codec declines to
// encoding/json) and a batch of one spec. The journal reader's tables and
// slabs stay out of a request's decoder; one that grew them would pay for
// a chunk's worth of state on every session.
func TestRequestDecodeAllocs(t *testing.T) {
	spec := Spec{
		Backend: BackendSim, ServerPair: "site-1", Seed: 3,
		Sim:   &SimJob{App: "zoom", Duration: 12 * time.Second},
		Fleet: &FleetMeta{Campaign: "serve", Session: 7, ISP: 2, Server: 1},
	}
	body, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(&BatchRequest{Specs: []Spec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	post := testing.AllocsPerRun(100, func() {
		buf.Reset()
		buf.Write(body)
		buf.WriteByte('\n')
		var got Spec
		if err := decodeWire(&buf, &got); err != nil {
			t.Fatal(err)
		}
	})
	one := testing.AllocsPerRun(100, func() {
		var got BatchRequest
		if !unmarshalWire(batch, &got) {
			t.Fatal("the codec declined its own batch")
		}
	})
	// The counts of the decoder before the journal reader kept any state.
	const postAllocs, batchAllocs = 17, 9
	if post > postAllocs || one > batchAllocs {
		t.Errorf("POST /jobs body: %v allocations (at most %d); batch of one: %v (at most %d)",
			post, postAllocs, one, batchAllocs)
	}
}

var wireSink int

// BenchmarkWireEncodeJob: one finished fleet job to JSON, by the codec
// and by encoding/json.
func BenchmarkWireEncodeJob(b *testing.B) {
	j := wireSampleJob(7)
	b.Run("codec=wire", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendWire(buf[:0], j)
		}
		wireSink = len(buf)
	})
	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := json.Marshal(j)
			if err != nil {
				b.Fatal(err)
			}
			wireSink = len(buf)
		}
	})
}

// BenchmarkWireDecodePage: a full GET /jobs page of 1 000 finished fleet
// jobs from JSON, by the codec and by encoding/json; ns/job is reported.
func BenchmarkWireDecodePage(b *testing.B) {
	page := make([]Job, listLimitMax)
	for i := range page {
		page[i] = wireSampleJob(i)
	}
	raw, err := json.Marshal(page)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, decode func() []Job) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if got := decode(); len(got) != len(page) {
					b.Fatalf("decoded %d jobs, want %d", len(got), len(page))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(page)), "ns/job")
		})
	}
	run("codec=wire", func() []Job {
		var got []Job
		unmarshalWire(raw, &got)
		return got
	})
	run("codec=json", func() []Job {
		var got []Job
		if err := json.Unmarshal(raw, &got); err != nil {
			b.Fatal(err)
		}
		return got
	})
}

// BenchmarkWireDecodeBatchRequest: a POST /jobs:batch body of 500 fleet
// specs — what campaign_bulk's plant sends — from JSON, by the codec and by
// encoding/json; ns/spec is reported.
func BenchmarkWireDecodeBatchRequest(b *testing.B) {
	req := BatchRequest{Specs: make([]Spec, 500)}
	for i := range req.Specs {
		req.Specs[i] = wireSampleJob(i).Spec
	}
	raw, err := json.Marshal(&req)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, decode func(*BatchRequest)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				var got BatchRequest
				if decode(&got); len(got.Specs) != len(req.Specs) {
					b.Fatalf("decoded %d specs, want %d", len(got.Specs), len(req.Specs))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(req.Specs)), "ns/spec")
		})
	}
	run("codec=wire", func(got *BatchRequest) { unmarshalWire(raw, got) })
	run("codec=json", func(got *BatchRequest) {
		if err := json.Unmarshal(raw, got); err != nil {
			b.Fatal(err)
		}
	})
}
