package service

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"
)

// The wire codec: the JSON of a Job or a journal record, written and read
// without reflection (DESIGN.md §15). encoding/json stays the one
// authority on what that JSON is; the codec is a fast path beside it,
// held to two rules:
//
//   - Out, byte-identical. What wireEnc appends is what json.Marshal
//     returns for the same value — field order, omitempty, HTML escaping,
//     float and time formatting — or wireEnc gives up (a NaN, a year
//     RFC 3339 cannot carry) and the caller asks json.Marshal, which
//     reports the error.
//   - In, equal or declined. wireDec reads only the language wireEnc
//     writes: objects of known keys, each at most once, in any order; no
//     whitespace, no escapes in strings, no null. On such input it returns
//     the value json.Unmarshal returns. On anything else it declines and
//     the caller asks json.Unmarshal, so encoding/json's leniency
//     (case-folded keys, \u escapes, merged duplicates, ignored unknown
//     keys) is never re-implemented for bytes this service does not write.
//
// A field added to one of the seven structs without the codec fails
// TestWireCoversEveryField; FuzzWireMatchesEncodingJSON holds both rules
// against encoding/json on arbitrary values and bytes.

// wireEnc appends JSON to b. Every value it writes ends in a comma, which
// close turns into the closing bracket and done drops. bad is sticky: once
// a value cannot be written, what b holds is of no use.
type wireEnc struct {
	b   []byte
	bad bool
}

func (e *wireEnc) key(k string) {
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
}

func (e *wireEnc) open(c byte) { e.b = append(e.b, c) }

func (e *wireEnc) close(c byte) {
	if n := len(e.b); e.b[n-1] == ',' {
		e.b[n-1] = c
	} else { // nothing since open
		e.b = append(e.b, c)
	}
	e.b = append(e.b, ',')
}

// quote appends s quoted. Plain printable ASCII needs no escaping; any
// other string is encoding/json's to quote.
func (e *wireEnc) quote(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(append(e.b, q...), ',')
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"', ',')
}

// number is encoding/json's floatEncoder: ES6 number formatting, with the
// exponent form outside [1e-6, 1e21) and "e-07" shortened to "e-7".
func (e *wireEnc) number(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	//lint:ignore floateq encoding/json's rule: a zero of either sign takes the 'f' form
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
	e.b = append(e.b, ',')
}

func (e *wireEnc) str(k, s string) { e.key(k); e.quote(s) }

func (e *wireEnc) int(k string, v int64) {
	e.key(k)
	e.b = append(strconv.AppendInt(e.b, v, 10), ',')
}

func (e *wireEnc) uint(k string, v uint64) {
	e.key(k)
	e.b = append(strconv.AppendUint(e.b, v, 10), ',')
}

func (e *wireEnc) bool(k string, v bool) {
	e.key(k)
	e.b = append(strconv.AppendBool(e.b, v), ',')
}

// The opt writers are the omitempty members: absent when zero.

func (e *wireEnc) optStr(k, s string) {
	if s != "" {
		e.str(k, s)
	}
}

func (e *wireEnc) optInt(k string, v int64) {
	if v != 0 {
		e.int(k, v)
	}
}

func (e *wireEnc) optFloat(k string, f float64) {
	//lint:ignore floateq encoding/json's omitempty rule: a float is empty when it == 0, of either sign
	if f != 0 {
		e.key(k)
		e.number(f)
	}
}

// time is Time.MarshalJSON: RFC3339Nano, refused when the year is not four
// digits wide or the zone's hour is not below 24 in two.
func (e *wireEnc) time(k string, t time.Time) {
	e.key(k)
	e.b = append(e.b, '"')
	year := len(e.b)
	e.b = t.AppendFormat(e.b, time.RFC3339Nano)
	if e.b[year+len("9999")] != '-' {
		e.bad = true
	} else if n := len(e.b); e.b[n-1] != 'Z' {
		zone := e.b[n-len("Z07:00"):]
		if c := zone[0]; ('0' <= c && c <= '9') || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			e.bad = true
		}
	}
	e.b = append(e.b, '"', ',')
}

func (e *wireEnc) job(j *Job) {
	e.open('{')
	e.str("id", j.ID)
	e.uint("seq", j.Seq)
	e.key("spec")
	e.spec(&j.Spec)
	e.str("state", string(j.State))
	e.int("attempts", int64(j.Attempts))
	if j.Resumed {
		e.bool("resumed", true)
	}
	e.time("submitted_at", j.SubmittedAt)
	e.time("started_at", j.StartedAt)
	e.time("finished_at", j.FinishedAt)
	e.time("retry_at", j.RetryAt)
	e.optStr("error", j.Error)
	if j.Result != nil {
		e.key("result")
		e.result(j.Result)
	}
	e.close('}')
}

// jobs appends an array of jobs; a nil slice is null, as in encoding/json.
func (e *wireEnc) jobs(js []Job) {
	if js == nil {
		e.b = append(e.b, "null,"...)
		return
	}
	e.open('[')
	for i := range js {
		e.job(&js[i])
	}
	e.close(']')
}

func (e *wireEnc) spec(s *Spec) {
	e.open('{')
	e.str("backend", s.Backend)
	e.optInt("priority", int64(s.Priority))
	e.optStr("server_pair", s.ServerPair)
	e.int("seed", s.Seed)
	e.optInt("deadline", int64(s.Deadline))
	e.optInt("max_attempts", int64(s.MaxAttempts))
	if s.Sim != nil {
		e.key("sim")
		e.simJob(s.Sim)
	}
	if s.Testbed != nil {
		e.key("testbed")
		e.testbedJob(s.Testbed)
	}
	if s.Fleet != nil {
		e.key("fleet")
		e.fleetMeta(s.Fleet)
	}
	e.close('}')
}

func (e *wireEnc) simJob(s *SimJob) {
	e.open('{')
	e.optStr("app", s.App)
	e.optFloat("input_factor", s.InputFactor)
	e.optFloat("queue_factor", s.QueueFactor)
	e.optFloat("bg_share", s.BgShare)
	e.optStr("placement", s.Placement)
	e.optInt("duration", int64(s.Duration))
	e.close('}')
}

func (e *wireEnc) testbedJob(t *TestbedJob) {
	e.open('{')
	e.optStr("app", t.App)
	e.optFloat("rate", t.Rate)
	e.optInt("delay", int64(t.Delay))
	e.optInt("duration", int64(t.Duration))
	e.close('}')
}

func (e *wireEnc) fleetMeta(f *FleetMeta) {
	e.open('{')
	e.optStr("campaign", f.Campaign)
	e.int("session", int64(f.Session))
	e.int("isp", int64(f.ISP))
	e.int("server", int64(f.Server))
	e.close('}')
}

func (e *wireEnc) result(r *Result) {
	e.open('{')
	e.str("backend", r.Backend)
	e.bool("wehe_detected", r.WeHeDetected)
	e.bool("confirmed", r.Confirmed)
	e.bool("localized_to_isp", r.LocalizedToISP)
	e.str("evidence", r.Evidence)
	e.key("loss_rates")
	e.open('[')
	e.number(r.LossRates[0])
	e.number(r.LossRates[1])
	e.close(']')
	e.optStr("detail", r.Detail)
	e.close('}')
}

func (e *wireEnc) record(r *record) {
	e.open('{')
	e.str("op", string(r.Op))
	e.str("id", r.ID)
	if r.Seq != 0 {
		e.uint("seq", r.Seq)
	}
	if r.Spec != nil {
		e.key("spec")
		e.spec(r.Spec)
	}
	if r.Result != nil {
		e.key("result")
		e.result(r.Result)
	}
	e.optStr("error", r.Error)
	e.close('}')
}

// done returns what was appended, less the last comma; ok is false when
// the value is one only encoding/json can refuse properly.
func (e *wireEnc) done() (b []byte, ok bool) {
	return e.b[:len(e.b)-1], !e.bad
}

// appendRecord appends r's journal payload to b.
func appendRecord(b []byte, r *record) ([]byte, error) {
	e := wireEnc{b: b}
	e.record(r)
	if out, ok := e.done(); ok {
		return out, nil
	}
	p, err := json.Marshal(r) // names what cannot be encoded
	return append(b, p...), err
}

// appendWire appends the JSON of a Job-bearing admin-plane response or of
// a batch request; ok is false for any other value, and for one
// json.Marshal must refuse.
func appendWire(b []byte, v any) (out []byte, ok bool) {
	e := wireEnc{b: b}
	switch v := v.(type) {
	case Job:
		e.job(&v)
	case []Job:
		e.jobs(v)
	case BatchStatusResponse:
		e.open('{')
		e.key("jobs")
		e.jobs(v.Jobs)
		if len(v.Missing) > 0 {
			e.key("missing")
			e.open('[')
			for _, id := range v.Missing {
				e.quote(id)
			}
			e.close(']')
		}
		e.close('}')
	case *BatchRequest:
		e.open('{')
		e.key("specs")
		if v.Specs == nil {
			e.b = append(e.b, "null,"...)
		} else {
			e.open('[')
			for i := range v.Specs {
				e.spec(&v.Specs[i])
			}
			e.close(']')
		}
		e.close('}')
	default:
		return b, false
	}
	return e.done()
}

// wireDec reads JSON from p. bad is sticky: a reader that meets anything
// outside the codec's language sets it and skips to the end of p, where
// every reader fails. ck is the journal reader's state for one chunk, nil
// in every other decoder.
type wireDec struct {
	p   []byte
	at  int
	bad bool
	ck  *chunkState
}

// chunkState is what the journal reader's decoder keeps from one record of
// its chunk to the next (DESIGN.md §15): one copy of each vocabulary
// string it has met, the first vocabCap of them, and the slabs the
// records' nested structs are carved from. A chunk is thousands of records
// that share a few dozen such strings and live as long as the replay; a
// request body holds one spec or a few, so its decoder keeps nothing and
// allocates as it always did.
type chunkState struct {
	vocab   map[string]string
	left    int // records of the chunk not yet read: no slab is cut longer
	specs   []Spec
	sims    []SimJob
	fleets  []FleetMeta
	results []Result
}

// vocabCap bounds a chunk's vocabulary: past it, a string is copied for
// each record, as without the table.
const vocabCap = 256

// slabLen is the most structs of one type a chunk cuts at once.
const slabLen = 256

func newChunkState() *chunkState { return &chunkState{vocab: make(map[string]string)} }

// carve returns a zero T from the front of *slab, cutting a new slab when
// it is empty. A slot is handed out once: a record that is then declined
// abandons the slots it took, and encoding/json allocates its own.
func carve[T any](slab *[]T, left int) *T {
	if len(*slab) == 0 {
		*slab = make([]T, min(max(left, 1), slabLen))
	}
	v := &(*slab)[0]
	*slab = (*slab)[1:]
	return v
}

func (d *wireDec) newSpec() *Spec {
	if d.ck == nil {
		return new(Spec)
	}
	return carve(&d.ck.specs, d.ck.left)
}

func (d *wireDec) newSim() *SimJob {
	if d.ck == nil {
		return new(SimJob)
	}
	return carve(&d.ck.sims, d.ck.left)
}

func (d *wireDec) newFleet() *FleetMeta {
	if d.ck == nil {
		return new(FleetMeta)
	}
	return carve(&d.ck.fleets, d.ck.left)
}

func (d *wireDec) newResult() *Result {
	if d.ck == nil {
		return new(Result)
	}
	return carve(&d.ck.results, d.ck.left)
}

func (d *wireDec) fail() {
	d.bad = true
	d.at = len(d.p)
}

// eat consumes c if it is next.
func (d *wireDec) eat(c byte) bool {
	if d.at < len(d.p) && d.p[d.at] == c {
		d.at++
		return true
	}
	return false
}

// need consumes c, which must be next.
func (d *wireDec) need(c byte) {
	if !d.eat(c) {
		d.fail()
	}
}

// plainByte marks what a string may hold unescaped: printable ASCII but
// for the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// quoted consumes a string of plain printable ASCII without escapes and
// returns it with its quotes, nil if that is not what is next.
func (d *wireDec) quoted() []byte {
	if !d.eat('"') {
		d.fail()
		return nil
	}
	for i, c := range d.p[d.at:] {
		if !plainByte[c] {
			if c != '"' {
				break
			}
			q := d.p[d.at-1 : d.at+i+1]
			d.at += i + 1
			return q
		}
	}
	d.fail()
	return nil
}

func (d *wireDec) str() string {
	if q := d.quoted(); q != nil {
		return string(q[1 : len(q)-1])
	}
	return ""
}

// name reads a string of the vocabulary: an op, a backend, a server
// pair, an app, a placement, a campaign, an evidence class. A chunk's
// decoder looks it up without copying it and copies it once.
func (d *wireDec) name() string {
	if d.ck == nil {
		return d.str()
	}
	q := d.quoted()
	if q == nil {
		return ""
	}
	b := q[1 : len(q)-1]
	if s, ok := d.ck.vocab[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.ck.vocab) < vocabCap {
		d.ck.vocab[s] = s
	}
	return s
}

// digits consumes a run of decimal digits and reports whether there was
// one.
func (d *wireDec) digits() bool {
	start := d.at
	for d.at < len(d.p) && d.p[d.at]-'0' <= 9 {
		d.at++
	}
	return d.at > start
}

// uint reads an integer as strconv writes it: no leading zero, no
// fraction or exponent. One of twenty digits may be past 64 bits and is
// declined unread.
func (d *wireDec) uint() uint64 {
	start := d.at
	var v uint64
	for ; d.at < len(d.p) && d.p[d.at]-'0' <= 9; d.at++ {
		v = v*10 + uint64(d.p[d.at]-'0')
	}
	if n := d.at - start; n == 0 || n > 19 || (n > 1 && d.p[start] == '0') {
		d.fail()
		return 0
	}
	return v
}

func (d *wireDec) int64() int64 {
	neg := d.eat('-')
	v := d.uint()
	if neg {
		v = -v
	}
	if (int64(v) < 0) != (neg && v != 0) { // past 63 bits
		d.fail()
	}
	return int64(v)
}

func (d *wireDec) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail()
	}
	return int(v)
}

// float reads a number of the JSON grammar, which strconv.ParseFloat alone
// would not hold the input to.
func (d *wireDec) float() float64 {
	start := d.at
	d.eat('-')
	ok := d.eat('0') || d.digits()
	if d.eat('.') {
		ok = d.digits() && ok
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		ok = d.digits() && ok
	}
	f, err := strconv.ParseFloat(string(d.p[start:d.at]), 64)
	if !ok || err != nil {
		d.fail()
	}
	return f
}

// word consumes s if it is next.
func (d *wireDec) word(s string) bool {
	if rest := d.p[d.at:]; len(rest) >= len(s) && string(rest[:len(s)]) == s {
		d.at += len(s)
		return true
	}
	return false
}

func (d *wireDec) bool() bool {
	if d.word("true") {
		return true
	}
	if !d.word("false") {
		d.fail()
	}
	return false
}

func (d *wireDec) time(t *time.Time) {
	if q := d.quoted(); q != nil && t.UnmarshalJSON(q) != nil {
		d.fail()
	}
}

// field is one member of a struct's JSON object: its key, in the json
// tag's spelling, and what reads its value into the struct.
type field[T any] struct {
	key  string
	read func(*wireDec, *T)
}

// object reads an object whose members are among fields, each at most
// once, into v; a key the struct lacks and a key met twice both decline.
// The search for a key starts behind the one before it: the encoder
// writes them in the fields' order.
func object[T any](d *wireDec, fields []field[T], v *T) {
	d.need('{')
	if d.eat('}') {
		return
	}
	for seen, next := uint32(0), 0; ; d.need(',') {
		d.need('"')
		rest := d.p[d.at:]
		at := -1
		for i := 0; i < len(fields) && at < 0; i++ {
			k := fields[(next+i)%len(fields)].key
			if len(rest) >= len(k)+2 && string(rest[:len(k)]) == k && rest[len(k)] == '"' && rest[len(k)+1] == ':' {
				at = (next + i) % len(fields)
			}
		}
		if at < 0 || seen&(1<<at) != 0 {
			d.fail()
			return
		}
		seen |= 1 << at
		d.at += len(fields[at].key) + 2
		fields[at].read(d, v)
		if next = at + 1; d.eat('}') {
			return
		}
	}
}

var jobFields = []field[Job]{
	{"id", func(d *wireDec, j *Job) { j.ID = d.str() }},
	{"seq", func(d *wireDec, j *Job) { j.Seq = d.uint() }},
	{"spec", func(d *wireDec, j *Job) { object(d, specFields, &j.Spec) }},
	{"state", func(d *wireDec, j *Job) { j.State = State(d.str()) }},
	{"attempts", func(d *wireDec, j *Job) { j.Attempts = d.int() }},
	{"resumed", func(d *wireDec, j *Job) { j.Resumed = d.bool() }},
	{"submitted_at", func(d *wireDec, j *Job) { d.time(&j.SubmittedAt) }},
	{"started_at", func(d *wireDec, j *Job) { d.time(&j.StartedAt) }},
	{"finished_at", func(d *wireDec, j *Job) { d.time(&j.FinishedAt) }},
	{"retry_at", func(d *wireDec, j *Job) { d.time(&j.RetryAt) }},
	{"error", func(d *wireDec, j *Job) { j.Error = d.str() }},
	{"result", func(d *wireDec, j *Job) { j.Result = new(Result); object(d, resultFields, j.Result) }},
}

var specFields = []field[Spec]{
	{"backend", func(d *wireDec, s *Spec) { s.Backend = d.name() }},
	{"priority", func(d *wireDec, s *Spec) { s.Priority = d.int() }},
	{"server_pair", func(d *wireDec, s *Spec) { s.ServerPair = d.name() }},
	{"seed", func(d *wireDec, s *Spec) { s.Seed = d.int64() }},
	{"deadline", func(d *wireDec, s *Spec) { s.Deadline = time.Duration(d.int64()) }},
	{"max_attempts", func(d *wireDec, s *Spec) { s.MaxAttempts = d.int() }},
	{"sim", func(d *wireDec, s *Spec) { s.Sim = d.newSim(); object(d, simFields, s.Sim) }},
	{"testbed", func(d *wireDec, s *Spec) { s.Testbed = new(TestbedJob); object(d, testbedFields, s.Testbed) }},
	{"fleet", func(d *wireDec, s *Spec) { s.Fleet = d.newFleet(); object(d, fleetFields, s.Fleet) }},
}

var simFields = []field[SimJob]{
	{"app", func(d *wireDec, s *SimJob) { s.App = d.name() }},
	{"input_factor", func(d *wireDec, s *SimJob) { s.InputFactor = d.float() }},
	{"queue_factor", func(d *wireDec, s *SimJob) { s.QueueFactor = d.float() }},
	{"bg_share", func(d *wireDec, s *SimJob) { s.BgShare = d.float() }},
	{"placement", func(d *wireDec, s *SimJob) { s.Placement = d.name() }},
	{"duration", func(d *wireDec, s *SimJob) { s.Duration = time.Duration(d.int64()) }},
}

var testbedFields = []field[TestbedJob]{
	{"app", func(d *wireDec, t *TestbedJob) { t.App = d.str() }},
	{"rate", func(d *wireDec, t *TestbedJob) { t.Rate = d.float() }},
	{"delay", func(d *wireDec, t *TestbedJob) { t.Delay = time.Duration(d.int64()) }},
	{"duration", func(d *wireDec, t *TestbedJob) { t.Duration = time.Duration(d.int64()) }},
}

var fleetFields = []field[FleetMeta]{
	{"campaign", func(d *wireDec, f *FleetMeta) { f.Campaign = d.name() }},
	{"session", func(d *wireDec, f *FleetMeta) { f.Session = d.int() }},
	{"isp", func(d *wireDec, f *FleetMeta) { f.ISP = d.int() }},
	{"server", func(d *wireDec, f *FleetMeta) { f.Server = d.int() }},
}

var resultFields = []field[Result]{
	{"backend", func(d *wireDec, r *Result) { r.Backend = d.name() }},
	{"wehe_detected", func(d *wireDec, r *Result) { r.WeHeDetected = d.bool() }},
	{"confirmed", func(d *wireDec, r *Result) { r.Confirmed = d.bool() }},
	{"localized_to_isp", func(d *wireDec, r *Result) { r.LocalizedToISP = d.bool() }},
	{"evidence", func(d *wireDec, r *Result) { r.Evidence = d.name() }},
	{"loss_rates", func(d *wireDec, r *Result) {
		d.need('[')
		r.LossRates[0] = d.float()
		d.need(',')
		r.LossRates[1] = d.float()
		d.need(']')
	}},
	{"detail", func(d *wireDec, r *Result) { r.Detail = d.str() }},
}

var recordFields = []field[record]{
	{"op", func(d *wireDec, r *record) { r.Op = recOp(d.name()) }},
	{"id", func(d *wireDec, r *record) { r.ID = d.str() }},
	{"seq", func(d *wireDec, r *record) { r.Seq = d.uint() }},
	{"spec", func(d *wireDec, r *record) { r.Spec = d.newSpec(); object(d, specFields, r.Spec) }},
	{"result", func(d *wireDec, r *record) { r.Result = d.newResult(); object(d, resultFields, r.Result) }},
	{"error", func(d *wireDec, r *record) { r.Error = d.str() }},
}

var batchFields = []field[BatchRequest]{
	{"specs", func(d *wireDec, b *BatchRequest) { b.Specs = array(d, specFields) }},
}

var statusFields = []field[BatchStatusResponse]{
	{"jobs", func(d *wireDec, s *BatchStatusResponse) { s.Jobs = array(d, jobFields) }},
	{"missing", func(d *wireDec, s *BatchStatusResponse) {
		d.need('[')
		s.Missing = []string{}
		for !d.eat(']') && !d.bad {
			if len(s.Missing) > 0 {
				d.need(',')
			}
			s.Missing = append(s.Missing, d.str())
		}
	}},
}

// array reads an array of objects; like encoding/json it returns an empty
// array as an empty, non-nil slice. The jobs of a page and the specs of a
// batch are about one size, so the first one's tells how many follow, and
// the slice is sized once.
func array[T any](d *wireDec, fields []field[T]) []T {
	d.need('[')
	vs := []T{}
	for !d.eat(']') {
		if len(vs) > 0 {
			d.need(',')
		}
		start := d.at
		vs = append(vs, *new(T))
		if object(d, fields, &vs[len(vs)-1]); d.bad {
			return nil
		}
		if len(vs) == 1 {
			vs = slices.Grow(vs, (len(d.p)-d.at)/(d.at-start))
		}
	}
	return vs
}

// whole reports whether the value just read was inside the codec's
// language and all of the input.
func (d *wireDec) whole() bool { return !d.bad && d.at == len(d.p) }

// record decodes one journal payload into r, a zero record. The decoder
// starts afresh: of the record before, only its chunk state is kept.
func (d *wireDec) record(p []byte, r *record) error {
	d.p, d.at, d.bad = p, 0, false
	if object(d, recordFields, r); d.whole() {
		return nil
	}
	*r = record{}
	return json.Unmarshal(p, r) // not the codec's language: encoding/json decides
}

// unmarshalWire decodes a Job-bearing admin-plane response or a batch
// request into out, a pointer to a zero value. ok is false for any other
// type and for bytes outside the codec's language, which leave *out zero.
func unmarshalWire(p []byte, out any) (ok bool) {
	d := wireDec{p: p}
	switch out := out.(type) {
	case *Job:
		if object(&d, jobFields, out); !d.whole() {
			*out = Job{}
		}
	case *[]Job:
		if *out = array(&d, jobFields); !d.whole() {
			*out = nil
		}
	case *BatchStatusResponse:
		if object(&d, statusFields, out); !d.whole() {
			*out = BatchStatusResponse{}
		}
	case *BatchRequest:
		if object(&d, batchFields, out); !d.whole() {
			*out = BatchRequest{}
		}
	default:
		return false
	}
	return d.whole()
}
