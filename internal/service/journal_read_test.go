package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/framing"
)

// nextRecord and oracleRead are the journal's former reader, kept
// verbatim as the reference the chunked reader is compared against: one
// record at a time, length bounds, then checksum, then JSON, stopping at
// the first that fails. They spell the frame layout out themselves rather
// than through internal/framing; recordHeaderSize is its header.

const recordHeaderSize = 8 + sha256.Size

// nextRecord parses one framed record, returning its payload and the rest.
func nextRecord(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < recordHeaderSize {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(len(b)-recordHeaderSize) {
		return nil, nil, false
	}
	payload = b[recordHeaderSize : recordHeaderSize+int(n)]
	var want [sha256.Size]byte
	copy(want[:], b[8:])
	if sha256.Sum256(payload) != want {
		return nil, nil, false
	}
	return payload, b[recordHeaderSize+int(n):], true
}

func oracleRead(raw []byte) (records []record, good int) {
	good = len(journalMagic)
	body := raw[good:]
	for len(body) > 0 {
		payload, rest, ok := nextRecord(body)
		if !ok {
			break
		}
		var r record
		if err := json.Unmarshal(payload, &r); err != nil {
			break
		}
		records = append(records, r)
		good += len(body) - len(rest)
		body = rest
	}
	return records, good
}

// checkAgainstOracle fails the test unless readRecords and the oracle
// return the same records over the same number of bytes.
func checkAgainstOracle(t *testing.T, raw []byte) {
	t.Helper()
	want, wantGood := oracleRead(raw)
	got, gotGood := readRecords(raw)
	if gotGood != wantGood || len(got) != len(want) {
		t.Fatalf("read %d records over %d bytes, oracle %d over %d", len(got), gotGood, len(want), wantGood)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d = %+v, oracle %+v", i, got[i], want[i])
		}
	}
	// DeepEqual cannot see two records share a nested struct: a decoder
	// handing one slab slot out twice would pass it.
	owner := map[any]int{}
	for i := range got {
		for _, p := range nested(&got[i]) {
			if j, taken := owner[p]; taken {
				t.Fatalf("records %d and %d share one %T", j, i, p)
			}
			owner[p] = i
		}
	}
}

// nested returns r's non-nil nested pointers.
func nested(r *record) (ps []any) {
	if r.Result != nil {
		ps = append(ps, r.Result)
	}
	if s := r.Spec; s != nil {
		ps = append(ps, s)
		if s.Sim != nil {
			ps = append(ps, s.Sim)
		}
		if s.Testbed != nil {
			ps = append(ps, s.Testbed)
		}
		if s.Fleet != nil {
			ps = append(ps, s.Fleet)
		}
	}
	return ps
}

// framedJournal is a journal image of the given payloads, with the
// offset at which each frame starts.
func framedJournal(payloads ...[]byte) (raw []byte, starts []int) {
	raw = []byte(journalMagic)
	for _, p := range payloads {
		starts = append(starts, len(raw))
		raw = framing.Append(raw, p)
	}
	return raw, starts
}

// campaignPayloads are the JSON payloads of a campaign of n jobs as the
// scheduler journals it: n fleet-attributed submits, in batches of 500,
// each batch followed by its jobs' done records.
func campaignPayloads(tb testing.TB, n int) [][]byte {
	tb.Helper()
	var out [][]byte
	add := func(r record) {
		p, err := json.Marshal(&r)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, p)
	}
	for lo := 0; lo < n; lo += 500 {
		hi := lo + 500
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			spec := Spec{
				Backend:    BackendSim,
				ServerPair: fmt.Sprintf("site-%d", i%8),
				Seed:       int64(i % 8),
				Sim:        &SimJob{App: "zoom", Duration: 12 * time.Second},
				Fleet:      &FleetMeta{Campaign: "replay", Session: i, ISP: i % 12, Server: i % 8},
			}
			add(record{Op: recSubmit, ID: fmt.Sprintf("j%06d", i+1), Seq: uint64(i + 1), Spec: &spec})
		}
		for i := lo; i < hi; i++ {
			add(record{Op: recDone, ID: fmt.Sprintf("j%06d", i+1), Result: &Result{
				Backend: BackendSim, WeHeDetected: true, Confirmed: true, LocalizedToISP: i%12 == 2,
			}})
		}
	}
	return out
}

// fuzzProcs is the worker count FuzzReadJournal reads with; its larger
// seeds hold enough records for every worker to get a chunk.
const fuzzProcs = 4

func FuzzReadJournal(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fuzzProcs))
	body := func(raw []byte) []byte { return raw[len(journalMagic):] }

	small := campaignPayloads(f, 2)[:3]
	clean, starts := framedJournal(small...)
	f.Add(body(clean))
	for cut := starts[2]; cut < len(clean); cut++ { // torn inside the last record
		f.Add(body(clean[:cut]))
	}
	// A checksum that matches a payload that is not JSON.
	badJSON, _ := framedJournal(small[0], []byte(`{"op":"done","id":`), small[2])
	f.Add(body(badJSON))
	// A length prefix of 2^63 (negative as an int).
	huge := bytes.Clone(clean)
	binary.LittleEndian.PutUint64(huge[starts[1]:], 1<<63)
	f.Add(body(huge))
	// One flipped payload byte in each worker's chunk, and in all of them.
	many := campaignPayloads(f, fuzzProcs*minFramesPerWorker)
	multi, at := framedJournal(many...)
	all := bytes.Clone(multi)
	for w := 0; w < fuzzProcs; w++ {
		i := w*len(many)/fuzzProcs + 3
		one := bytes.Clone(multi)
		one[at[i]+recordHeaderSize] ^= 0xff
		all[at[i]+recordHeaderSize] ^= 0xff
		f.Add(body(one))
	}
	f.Add(body(all))
	// Mid-chunk records that are valid JSON outside the codec's language —
	// a space before the last brace, \u escapes — each declined after the
	// codec has filled part of it, then records of the same vocabulary
	// that leave those parts out: nothing of a declined record may reach
	// the next one.
	declined, _ := framedJournal(small[0],
		[]byte(`{"op":"submit","id":"j000009","seq":9,"spec":{"backend":"sim","priority":3,"server_pair":"site-1","seed":1,"sim":{"app":"zoom","input_factor":2.5,"placement":"common","duration":12000000000},"fleet":{"campaign":"replay","session":9,"isp":9,"server":1}} }`),
		[]byte(`{"op":"submit","id":"j000010","seq":10,"spec":{"backend":"sim","seed":2,"sim":{"app":"zoom"},"fleet":{"campaign":"replay","session":10}}}`),
		[]byte(`{"op":"done","id":"j000001","result":{"detail":"first","backend":"sim","wehe_detected":true,"confirmed":true,"localized_to_isp":true,"evidence":"lo\u0073s","loss_rates":[0.5,0.25]}}`),
		[]byte(`{"op":"d\u006fne","id":"j000010","result":{"backend":"sim","wehe_detected":false,"confirmed":false,"localized_to_isp":false,"evidence":"loss","loss_rates":[0,0]}}`),
		[]byte(`{"op":"done","id":"j000009","result":{"backend":"sim","wehe_detected":false,"confirmed":false,"localized_to_isp":false,"evidence":"loss","loss_rates":[0,0]}}`),
		small[2])
	f.Add(body(declined))

	f.Fuzz(func(t *testing.T, b []byte) {
		checkAgainstOracle(t, append([]byte(journalMagic), b...))
	})
}

// TestJournalReplayAllocs pins the reader's allocations per record: the
// ID string of each, a few slabs and vocabulary strings per chunk, and
// nothing for the nested structs or the shared strings a record holds.
// The reader that allocated each of those on its own took 7.5.
func TestJournalReplayAllocs(t *testing.T) {
	payloads := campaignPayloads(t, 2000)
	raw, _ := framedJournal(payloads...)
	const perRecord = 1.05
	for _, procs := range []int{1, fuzzProcs} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			n := testing.AllocsPerRun(5, func() {
				if recs, _ := readRecords(raw); len(recs) != len(payloads) {
					t.Fatalf("read %d records, want %d", len(recs), len(payloads))
				}
			})
			if got := n / float64(len(payloads)); got > perRecord {
				t.Errorf("procs=%d: %.3f allocations per record, at most %.2f", procs, got, perRecord)
			}
		}()
	}
}

// TestReadJournalWorkerCounts: whatever the number of workers, recovery
// keeps the same prefix of a journal with corrupt records in the middle,
// drops the same bytes and compacts to the same file, and the read-only
// loader sees the same jobs.
func TestReadJournalWorkerCounts(t *testing.T) {
	payloads := campaignPayloads(t, 2500) // 5 000 records
	raw, starts := framedJournal(payloads...)
	const firstBad = 2600
	raw[starts[firstBad]+recordHeaderSize+5] ^= 0x01 // payload bit: checksum mismatch
	raw[starts[4900]+8] ^= 0x01                      // a later worker's chunk: stored checksum
	wantRecs, wantGood := oracleRead(raw)
	if len(wantRecs) != firstBad {
		t.Fatalf("oracle kept %d records, want %d", len(wantRecs), firstBad)
	}
	wantFile, _ := framedJournal(payloads[:firstBad]...)
	var wantJobs []Job

	for _, procs := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			checkAgainstOracle(t, raw)

			path := filepath.Join(t.TempDir(), "journal.wj")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			jobs, err := LoadJournalJobs(path)
			if err != nil {
				t.Fatal(err)
			}
			if wantJobs == nil {
				wantJobs = jobs
			}
			if len(jobs) != 1500 || !reflect.DeepEqual(jobs, wantJobs) {
				t.Errorf("loaded %d jobs, differing from the %d at procs=1", len(jobs), len(wantJobs))
			}

			jr, rec, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}
			if len(rec.Records) != firstBad || rec.DroppedBytes != len(raw)-wantGood {
				t.Errorf("recovery kept %d records, dropped %d bytes; want %d, %d",
					len(rec.Records), rec.DroppedBytes, firstBad, len(raw)-wantGood)
			}
			compacted, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(compacted, wantFile) {
				t.Errorf("compacted file (%d bytes) is not the valid prefix (%d bytes)", len(compacted), len(wantFile))
			}
		})
	}
}

// TestLoadJournalJobs: the read-only loader reconstructs the same job
// snapshots scheduler recovery would, without mutating the file.
func TestLoadJournalJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	b := newStubBackend()
	b.fail = func(seed int64, attempt int) error {
		if seed == 2 {
			return errors.New("boom")
		}
		return nil
	}
	s, err := NewScheduler(Options{
		Workers:     1,
		JournalPath: path,
		Clock:       clock.NewManual(time.Unix(1700000000, 0)),
		Backends:    map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	specs := []Spec{stubSpec(1), stubSpec(2), stubSpec(3)}
	for i := range specs {
		specs[i].MaxAttempts = 1 // no retries: the failure is terminal at once
	}
	specs[0].Fleet = &FleetMeta{Campaign: "c1", Session: 7, ISP: 3, Server: 1}
	jobs, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, jobs[0].ID, StateDone)
	waitState(t, s, jobs[1].ID, StateFailed)
	waitState(t, s, jobs[2].ID, StateDone)
	s.Close()

	loaded, err := LoadJournalJobs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 {
		t.Fatalf("loaded %d jobs, want 3", len(loaded))
	}
	if got := loaded[0]; got.State != StateDone || got.Result == nil ||
		got.Spec.Fleet == nil || got.Spec.Fleet.Session != 7 || got.Spec.Fleet.ISP != 3 {
		t.Errorf("job 1 = %+v; want done with fleet meta intact", got)
	}
	if loaded[1].State != StateFailed || loaded[1].Error == "" {
		t.Errorf("job 2 = %+v; want failed with error", loaded[1])
	}
	// Loading again is idempotent — the file was not compacted or touched.
	again, err := LoadJournalJobs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(loaded) {
		t.Errorf("second load differs: %d vs %d jobs", len(again), len(loaded))
	}
}

// TestFoldSameInRecoveryAndLoad feeds hand-built record sequences through
// scheduler recovery and through LoadJournalJobs: both must arrive at the
// same jobs, because both run foldRecords.
func TestFoldSameInRecoveryAndLoad(t *testing.T) {
	first, second := &Result{Detail: "first"}, &Result{Detail: "second"}
	otherSpec := stubSpec(99)
	cases := []struct {
		name    string
		records []record
		want    []Job // ID, Seq, Spec.Seed, State, Result, Error
		dups    int64
	}{
		{
			name: "duplicate submit keeps the first",
			records: []record{
				submitRecord("j000001", 1, 1),
				{Op: recSubmit, ID: "j000001", Seq: 7, Spec: &otherSpec},
				{Op: recDone, ID: "j000001", Result: first},
			},
			want: []Job{{ID: "j000001", Seq: 1, Spec: stubSpec(1), State: StateDone, Result: first}},
		},
		{
			name: "duplicate terminal keeps the first",
			records: []record{
				submitRecord("j000001", 1, 1),
				{Op: recFail, ID: "j000001", Error: "boom"},
				{Op: recDone, ID: "j000001", Result: second},
				{Op: recCancel, ID: "j000001"},
			},
			want: []Job{{ID: "j000001", Seq: 1, Spec: stubSpec(1), State: StateFailed, Error: "boom"}},
			dups: 2,
		},
		{
			name: "terminal before its submit is ignored",
			records: []record{
				{Op: recDone, ID: "j000001", Result: first},
				submitRecord("j000001", 1, 1),
			},
			want: []Job{{ID: "j000001", Seq: 1, Spec: stubSpec(1), State: StateQueued}},
		},
		{
			name: "submit without a spec is ignored",
			records: []record{
				{Op: recSubmit, ID: "j000001", Seq: 1},
				{Op: recDone, ID: "j000001", Result: first},
				submitRecord("j000002", 2, 2),
			},
			want: []Job{{ID: "j000002", Seq: 2, Spec: stubSpec(2), State: StateQueued}},
		},
		{
			name: "cancel carries its error; jobs come back in seq order",
			records: []record{
				submitRecord("j000002", 2, 2),
				submitRecord("j000001", 1, 1),
				{Op: recCancel, ID: "j000002", Error: "operator"},
				{Op: "compact", ID: "j000001"}, // an op this version does not know
			},
			want: []Job{
				{ID: "j000001", Seq: 1, Spec: stubSpec(1), State: StateQueued},
				{ID: "j000002", Seq: 2, Spec: stubSpec(2), State: StateCanceled, Error: "operator"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.wj")
			writeJournal(t, path, tc.records...)

			loaded, err := LoadJournalJobs(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loaded, tc.want) {
				t.Errorf("LoadJournalJobs = %+v\nwant %+v", loaded, tc.want)
			}

			s := journalScheduler(t, path, newFailingStub(t)) // not started
			recovered := s.List()
			for i := range recovered {
				j := &recovered[i]
				if !j.Resumed || j.SubmittedAt.IsZero() || j.FinishedAt.IsZero() == j.State.Terminal() {
					t.Errorf("recovered job %s: resumed=%v submitted=%v finished=%v in state %s",
						j.ID, j.Resumed, j.SubmittedAt, j.FinishedAt, j.State)
				}
				// What only a live scheduler knows; the journal holds the rest.
				j.Resumed, j.SubmittedAt, j.FinishedAt = false, time.Time{}, time.Time{}
			}
			if !reflect.DeepEqual(recovered, loaded) {
				t.Errorf("recovery = %+v\nLoadJournalJobs = %+v", recovered, loaded)
			}
			if m := s.Metrics(); m.JournalDupTerminals != tc.dups {
				t.Errorf("dup terminals = %d, want %d", m.JournalDupTerminals, tc.dups)
			}
		})
	}
}

// BenchmarkJournalReplay times the two consumers of the journal reader —
// scheduler recovery and the read-only loader — over a finished campaign
// of 20 000 fleet-attributed jobs (40 000 records), on one core and on
// all of them. procs=1 runs the same code with a single chunk, so the
// pair is the standing measurement of what decoding in parallel buys.
func BenchmarkJournalReplay(b *testing.B) {
	const jobs = 20000
	raw, _ := framedJournal(campaignPayloads(b, jobs)...)
	path := filepath.Join(b.TempDir(), "journal.wj")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	consumers := []struct {
		name string
		run  func(b *testing.B) int64
	}{
		{"recover", func(b *testing.B) int64 {
			s, err := NewScheduler(Options{JournalPath: path, Backends: map[string]Backend{BackendSim: NullBackend{}}})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			n := s.Metrics().Done
			s.Close()
			b.StartTimer()
			return n
		}},
		{"load", func(b *testing.B) int64 {
			loaded, err := LoadJournalJobs(path)
			if err != nil {
				b.Fatal(err)
			}
			return int64(len(loaded))
		}},
	}
	max := runtime.GOMAXPROCS(0)
	for _, c := range consumers {
		for _, procs := range []struct {
			name string
			n    int
		}{{"1", 1}, {"max", max}} {
			b.Run(c.name+"/procs="+procs.name, func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs.n))
				b.SetBytes(int64(len(raw)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n := c.run(b); n != jobs {
						b.Fatalf("replayed %d jobs, want %d", n, jobs)
					}
				}
				b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			})
		}
	}
}
