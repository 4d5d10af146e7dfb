package service

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"

	"github.com/nal-epfl/wehey/internal/framing"
)

// The journal is the scheduler's crash-safety layer: an append-only file
// of checksummed, length-prefixed records (journalMagic, then one
// internal/framing frame per record). Submissions and terminal
// transitions are the only journaled events; running state
// is reconstructed by re-queuing every non-terminal job on recovery,
// which is exactly the resume-once semantics a restart needs: a job with
// a terminal record never runs again, a job without one runs again
// exactly once.
//
// Durability is group-committed (DESIGN.md §15): Append and AppendBatch
// enqueue records on an in-memory batch and block until a dedicated
// committer goroutine has written *and fsynced* the batch they are part
// of. N concurrent appends therefore cost one write+fsync instead of N,
// while the exactly-once contract is unchanged — no caller is ever
// acknowledged before its record is durable. The committer takes
// everything queued, so a batch is whatever arrived while the previous
// fsync was in flight. A worker's terminal record is posted instead: same
// queue, same commit, nobody waiting for it (post).
//
// Recovery tolerates a torn tail (the process died mid-append): framing
// stops at the first malformed record, the tail is dropped and counted,
// and the file is compacted — its valid prefix replaces it durably
// (framing.Replace) — so the next append lands on a clean end of file. A
// batch is a durability unit, not a recovery-atomicity unit: records are
// framed individually, so a tear inside a batch keeps the batch's earlier
// records — safe, because no record of a torn batch was ever acknowledged
// (the fsync never returned).

// journalMagic identifies (and versions) the journal file format.
const journalMagic = "WHYJRNL1"

// recOp enumerates journaled events.
type recOp string

const (
	recSubmit recOp = "submit"
	recDone   recOp = "done"
	recFail   recOp = "fail"
	recCancel recOp = "cancel"
)

// record is one journal entry (JSON payload inside the binary framing).
type record struct {
	Op     recOp   `json:"op"`
	ID     string  `json:"id"`
	Seq    uint64  `json:"seq,omitempty"`
	Spec   *Spec   `json:"spec,omitempty"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// Recovery summarizes what opening a journal found.
type Recovery struct {
	// Records are the valid records in append order.
	Records []record
	// DroppedBytes counts torn-tail bytes discarded (0 = clean file); the
	// file was compacted exactly when it is not 0.
	DroppedBytes int
}

// ErrJournalClosed is returned by Append/AppendBatch once Close has begun
// and the record was not part of the final drained batch. A caller that
// sees it knows its record is NOT durable.
var ErrJournalClosed = errors.New("service: journal closed")

// jWaiter is one entry of the commit queue: records, already framed, and
// for an Append/AppendBatch call parked on them a buffered channel the
// committer resolves after the fsync covering them returns. A posted
// entry has no channel.
type jWaiter struct {
	frames []byte
	nrec   int
	done   chan error
}

// defaultPostLimit is how many records may already be waiting for a
// commit when a post still returns at once; from there on a post waits
// for its commit as an Append does, so a slow disk stalls the workers
// instead of growing the heap. It also bounds what a SIGKILL re-runs
// (DESIGN.md §10).
const defaultPostLimit = 1024

// JournalStats snapshots the commit pipeline counters (monotonic).
type JournalStats struct {
	// Commits counts write+fsync batches.
	Commits int64
	// Records counts records made durable across all commits; Records /
	// Commits is the achieved group-commit factor.
	Records int64
}

// Journal is an open, append-position-clean campaign journal with a
// running group-commit pipeline.
type Journal struct {
	mu     sync.Mutex
	f      framing.File
	queue  []jWaiter
	queued int // records in queue
	closed bool
	ioErr  error // sticky: a failed write may leave a torn tail mid-file

	postLimit int // defaultPostLimit; the ablation benchmark sets 0: every post waits

	kick    chan struct{} // capacity 1: work arrived
	closing chan struct{} // Close begun: drain and exit
	done    chan struct{} // committer exited

	commits atomic.Int64
	records atomic.Int64
}

// OpenJournal opens (creating if missing) the journal at path, validates
// every record, repairs a torn tail, starts the commit pipeline, and
// returns the surviving records.
func OpenJournal(path string) (*Journal, Recovery, error) {
	return openJournal(framing.OS{}, path)
}

func openJournal(fsys framing.FS, path string) (*Journal, Recovery, error) {
	raw, recs, good, err := readJournal(fsys, path)
	rec := Recovery{Records: recs, DroppedBytes: len(raw) - good}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, rec, err
	}
	if len(raw) > 0 && good == 0 {
		// Unrecognized head: preserve the evidence, start fresh.
		if err := framing.Replace(fsys, path+".corrupt", raw, true); err != nil {
			return nil, rec, fmt.Errorf("service: quarantine corrupt journal: %w", err)
		}
	}
	if rec.DroppedBytes > 0 || len(raw) == 0 {
		// Compact: the valid prefix (or a fresh header) replaces the file,
		// so the appender never sits after torn bytes.
		valid := raw[:good]
		if good == 0 {
			valid = []byte(journalMagic)
		}
		if err := framing.Replace(fsys, path, valid, true); err != nil {
			return nil, rec, fmt.Errorf("service: compact journal: %w", err)
		}
	}

	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("service: open journal for append: %w", err)
	}
	j := &Journal{
		f:         f,
		postLimit: defaultPostLimit,
		kick:      make(chan struct{}, 1),
		closing:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	go j.committer()
	return j, rec, nil
}

// frameRecords appends every record, encoded and framed, to buf.
func frameRecords(buf []byte, records []record) ([]byte, error) {
	var payload []byte
	for i := range records {
		var err error
		if payload, err = appendRecord(payload[:0], &records[i]); err != nil {
			return nil, fmt.Errorf("service: encode journal record %s %s: %w", records[i].Op, records[i].ID, err)
		}
		buf = framing.Append(buf, payload)
	}
	return buf, nil
}

// Append journals one record durably: it blocks until the group commit
// containing the record has fsynced. A nil return means the record is on
// disk; a crash after Append never forgets the event, a crash during it
// leaves a torn tail the next OpenJournal repairs.
func (j *Journal) Append(r record) error {
	return j.AppendBatch([]record{r})
}

// AppendBatch journals a group of records durably under a single waiter:
// all of them are covered by one commit (one fsync), and the call blocks
// until that commit returns. The batch is a durability unit — on a nil
// return every record is on disk; on an error none of them was
// acknowledged.
//
// The records are encoded here, on the caller's goroutine, before
// anything is queued: a record that cannot be encoded (a NaN in a result)
// is refused to this caller alone and the journal carries on, and the
// committer is left with nothing to do but write and fsync.
func (j *Journal) AppendBatch(recs []record) error {
	if len(recs) == 0 {
		return nil
	}
	frames, err := frameRecords(make([]byte, 0, len(recs)*(framing.HeaderSize+256)), recs)
	if err != nil {
		return err
	}
	return j.enqueue(frames, len(recs), true)
}

// post queues n framed records for the next commit and returns without
// waiting for it: the caller learns only whether the journal took the
// records (it refuses as Append does once closed or failed), not whether
// they became durable. Close drains posted records like any other.
func (j *Journal) post(frames []byte, n int) error {
	return j.enqueue(frames, n, false)
}

// enqueue puts framed records on the commit queue and wakes the
// committer. It blocks until their fsync returns when the caller asked to
// wait, or when postLimit records are queued ahead of it.
func (j *Journal) enqueue(frames []byte, nrec int, wait bool) error {
	w := jWaiter{frames: frames, nrec: nrec}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrJournalClosed
	}
	if err := j.ioErr; err != nil {
		// A previous commit failed mid-write: the file may hold a torn
		// record mid-stream, and anything appended after it would be
		// unreachable at recovery. Refuse instead of acking into the void.
		j.mu.Unlock()
		return err
	}
	if wait || j.queued >= j.postLimit {
		w.done = make(chan error, 1)
	}
	j.queue = append(j.queue, w)
	j.queued += nrec
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default: // committer already signaled
	}
	if w.done == nil {
		return nil
	}
	return <-w.done
}

// committer is the commit pipeline: it takes every queued entry,
// performs one write+fsync for the lot, and then releases those that
// wait. On Close it drains the queue — every record enqueued before Close
// is either committed-and-acked or was rejected with ErrJournalClosed
// before enqueueing; an unsynced record is never acknowledged.
func (j *Journal) committer() {
	defer close(j.done)
	for {
		j.mu.Lock()
		for len(j.queue) == 0 {
			closed := j.closed
			j.mu.Unlock()
			if closed {
				return
			}
			select {
			case <-j.kick:
			case <-j.closing:
			}
			j.mu.Lock()
		}
		batch := j.queue
		j.queue, j.queued = nil, 0
		j.mu.Unlock()

		err := j.commit(batch)
		for _, w := range batch {
			if w.done != nil {
				w.done <- err
			}
		}
	}
}

// commit writes one batch of framed records and fsyncs it. An error is
// sticky: a failed write can leave a torn record mid-file, after which
// further appends would be unrecoverable, so the journal refuses them.
func (j *Journal) commit(batch []jWaiter) error {
	buf, nrec := batch[0].frames, batch[0].nrec // one waiter, the common case, is written as it came
	for _, w := range batch[1:] {
		buf = append(buf, w.frames...)
		nrec += w.nrec
	}
	if _, err := j.f.Write(buf); err != nil {
		return j.fail(fmt.Errorf("service: append journal: %w", err))
	}
	if err := j.f.Sync(); err != nil {
		return j.fail(fmt.Errorf("service: sync journal: %w", err))
	}
	j.commits.Add(1)
	j.records.Add(int64(nrec))
	return nil
}

// journalError is a failed journal write or fsync: the server's fault,
// whatever the file system said (statusFor answers 500).
type journalError struct{ error }

func (e journalError) Unwrap() error { return e.error }

// fail records a sticky commit error.
func (j *Journal) fail(err error) error {
	err = journalError{err}
	j.mu.Lock()
	if j.ioErr == nil {
		j.ioErr = err
	}
	j.mu.Unlock()
	return err
}

// Stats snapshots the commit pipeline counters.
func (j *Journal) Stats() JournalStats {
	return JournalStats{Commits: j.commits.Load(), Records: j.records.Load()}
}

// Close drains the commit pipeline and releases the file handle. Appends
// enqueued before Close are committed and acknowledged; appends arriving
// after return ErrJournalClosed. Close never acknowledges an unsynced
// record, so it cannot lose data.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.closing)
	<-j.done
	return j.f.Close()
}
