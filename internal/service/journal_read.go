package service

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/nal-epfl/wehey/internal/framing"
)

// The journal has one reader (readRecords) and one fold (foldRecords).
// Scheduler recovery and LoadJournalJobs are both "read the file, fold
// the records"; they differ only in what they do with the jobs.

// minFramesPerWorker is the smallest chunk worth a goroutine of its own:
// a record costs microseconds to verify and decode, so a few dozen of
// them already outweigh starting and joining a goroutine.
const minFramesPerWorker = 16

// readJournal reads the journal at path and the longest valid prefix of
// its records (readRecords), which span raw[:good]; good is 0 when raw
// does not start with journalMagic.
func readJournal(fsys framing.FS, path string) (raw []byte, recs []record, good int, err error) {
	var buf bytes.Buffer
	if err := fsys.ReadFile(path, &buf); err != nil {
		return nil, nil, 0, fmt.Errorf("service: read journal: %w", err)
	}
	if raw = buf.Bytes(); bytes.HasPrefix(raw, []byte(journalMagic)) {
		recs, good = readRecords(raw)
	}
	return raw, recs, good, nil
}

// readRecords decodes a journal image (raw starts with journalMagic) and
// returns the longest prefix of records in which every record is framed
// within the file, matches its SHA-256 and is valid JSON, plus the number
// of bytes of raw that prefix spans. The first record failing any check
// ends the journal: everything from it on is a torn tail.
//
// Only finding the frame boundaries (framing.Scan) is sequential, and it
// touches 8 bytes per record. Checksums and JSON decoding — nearly all of
// the cost — are independent per record, so the frames are cut into one
// contiguous chunk per GOMAXPROCS and every chunk is verified and decoded
// by its own goroutine, each record into its own slot of one pre-sized
// slice. The result is what reading record by record would give.
func readRecords(raw []byte) (recs []record, good int) {
	body := raw[len(journalMagic):]
	off := framing.Scan(body)
	frames := len(off) - 1
	recs = make([]record, frames)

	// decode verifies and decodes frames [lo, hi) and returns the index
	// of the first one that fails, hi if none does. One decoder reads the
	// whole chunk, so its records share the vocabulary strings and the
	// slabs it keeps; no other goroutine sees that state.
	decode := func(lo, hi int) int {
		d := wireDec{ck: newChunkState()}
		for i := lo; i < hi; i++ {
			payload, ok := framing.Payload(body[off[i]:off[i+1]])
			d.ck.left = hi - i
			if !ok || d.record(payload, &recs[i]) != nil {
				return i
			}
		}
		return hi
	}

	// Chunk w is frames [cut(w), cut(w+1)); the caller's goroutine takes
	// chunk 0, so a journal of one chunk starts no goroutine at all.
	workers := max(1, min(runtime.GOMAXPROCS(0), frames/minFramesPerWorker))
	cut := func(w int) int { return w * frames / workers }
	stopped := make([]int, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stopped[w] = decode(cut(w), cut(w+1))
		}(w)
	}
	stopped[0] = decode(0, cut(1))
	wg.Wait()
	valid := frames
	for w, at := range stopped {
		if at < cut(w+1) {
			valid = at
			break
		}
	}
	return recs[:valid], len(journalMagic) + off[valid]
}

// journalJob is one job as the journal tells it: the record that opened
// it and the one that closed it, nil while the job is open.
type journalJob struct{ submit, end *record }

// snapshot fills in what the journal holds of the job: ID, Seq, Spec,
// State, Result, Error.
func (jj journalJob) snapshot() Job {
	j := Job{ID: jj.submit.ID, Seq: jj.submit.Seq, Spec: *jj.submit.Spec, State: StateQueued}
	if e := jj.end; e != nil {
		j.State, j.Result, j.Error = e.Op.endState(), e.Result, e.Error
	}
	return j
}

// endState is the terminal state a record of this op leaves its job in,
// "" for a submit or an op this version does not know.
func (op recOp) endState() State {
	switch op {
	case recDone:
		return StateDone
	case recFail:
		return StateFailed
	case recCancel:
		return StateCanceled
	}
	return ""
}

// foldRecords replays records into jobs in submission (Seq) order — the
// journal's state machine, in its only copy. A submit opens a job; the
// first submit for an ID wins, and one without a spec or an ID is
// ignored. A done/fail/cancel record closes its job; the first one wins
// and later ones are counted in dupTerminals (a crash between the append
// and whatever followed leaves such duplicates). A terminal record for a
// job that was never opened is ignored. The jobs point into recs.
func foldRecords(recs []record) (jobs []journalJob, dupTerminals int) {
	byID := make(map[string]int, len(recs)/2)
	jobs = make([]journalJob, 0, len(recs)/2)
	ascending := true
	for i := range recs {
		r := &recs[i]
		at, known := byID[r.ID]
		switch {
		case r.Op == recSubmit:
			if r.Spec == nil || r.ID == "" || known {
				continue
			}
			if n := len(jobs); n > 0 && r.Seq < jobs[n-1].submit.Seq {
				ascending = false
			}
			byID[r.ID] = len(jobs)
			jobs = append(jobs, journalJob{submit: r})
		case r.Op.endState() == "" || !known:
		case jobs[at].end != nil:
			dupTerminals++
		default:
			jobs[at].end = r
		}
	}
	if !ascending {
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].submit.Seq < jobs[b].submit.Seq })
	}
	return jobs, dupTerminals
}

// LoadJournalJobs reads a campaign journal without opening it for
// writing: no compaction, no appender, no mutation of the file — safe on
// a journal another process is still appending to, and the substrate of
// `wehey-map infer` (one-shot aggregation over a jobs dump). It is
// scheduler recovery's reader and fold without the scheduler: a torn
// tail or malformed record ends the scan, and jobs come back in
// submission order, queued unless a terminal record closed them.
func LoadJournalJobs(path string) ([]Job, error) {
	return loadJournalJobs(framing.OS{}, path)
}

func loadJournalJobs(fsys framing.FS, path string) ([]Job, error) {
	_, recs, good, err := readJournal(fsys, path)
	if err == nil && good == 0 {
		err = fmt.Errorf("service: %s is not a campaign journal", path)
	}
	if err != nil {
		return nil, err
	}
	folded, _ := foldRecords(recs)
	jobs := make([]Job, len(folded))
	for i, jj := range folded {
		jobs[i] = jj.snapshot()
	}
	return jobs, nil
}
