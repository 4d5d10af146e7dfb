package service

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"testing"

	"github.com/nal-epfl/wehey/internal/framing/framingtest"
)

// commitFaults fail a journal commit: its write, short or refused, or its
// fsync.
var commitFaults = map[string]func(*framingtest.Op) error{
	"short write": func(op *framingtest.Op) error {
		if op.Kind == framingtest.Write {
			op.Data = op.Data[:len(op.Data)/2]
		}
		return nil
	},
	"no space":    failKind(framingtest.Write, syscall.ENOSPC),
	"fsync error": failKind(framingtest.Sync, syscall.EIO),
}

// TestCommitFaultFailsEveryWaiter injects a fault into the second commit
// of a journal while three appends wait on it: each of them gets the
// error, the next append is refused with it (a failed write may have left
// a torn record mid-file), and a reopen — of the disk as the process left
// it, and of what a power loss leaves — keeps the first commit's record.
func TestCommitFaultFailsEveryWaiter(t *testing.T) {
	for name, fault := range commitFaults {
		t.Run(name, func(t *testing.T) {
			fsys := framingtest.New(nil)
			jr, _, err := openJournal(fsys, recorderJournal)
			if err != nil {
				t.Fatal(err)
			}
			defer jr.Close()
			writing, queued := make(chan struct{}), make(chan struct{})
			writes := 0
			fsys.Hook = func(op *framingtest.Op) error {
				if op.Kind == framingtest.Write {
					if writes++; writes == 1 {
						close(writing)
						<-queued // the first commit holds until the second has its three waiters
						return nil
					}
				}
				if writes < 2 {
					return nil
				}
				return fault(op)
			}
			first := make(chan error, 1)
			go func() { first <- jr.Append(submitRecord("j000001", 1, 1)) }()
			<-writing
			var wg sync.WaitGroup
			errs := make([]error, 3)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = jr.Append(submitRecord(fmt.Sprintf("j%06d", i+2), uint64(i+2), int64(i+2)))
				}(i)
			}
			for {
				jr.mu.Lock()
				n := jr.queued
				jr.mu.Unlock()
				if n == 3 {
					break
				}
				runtime.Gosched()
			}
			close(queued)
			wg.Wait()
			if err := <-first; err != nil {
				t.Fatalf("the first commit failed: %v", err)
			}
			for i, err := range errs {
				if err == nil || !errors.Is(err, errs[0]) {
					t.Errorf("waiter %d of the failing commit got %v, want the commit's error (%v)", i, err, errs[0])
				}
			}
			if err := jr.Append(submitRecord("j000005", 5, 5)); err == nil || !errors.Is(err, errs[0]) {
				t.Errorf("Append after the failed commit = %v, want the sticky %v", err, errs[0])
			}

			afterKill := fsys.Files()
			afterPowerLoss := fsys.Crash(fsys.Len(), 1)[0]
			for disk, img := range map[string]map[string][]byte{"process killed": afterKill, "power lost": afterPowerLoss} {
				jr2, rec, err := openJournal(framingtest.New(img), recorderJournal)
				if err != nil {
					t.Fatalf("%s: reopen: %v", disk, err)
				}
				jr2.Close()
				if len(rec.Records) == 0 || rec.Records[0].ID != "j000001" {
					t.Errorf("%s: reopen found %d records, want the first commit's first", disk, len(rec.Records))
				}
				if disk == "power lost" && (len(rec.Records) != 1 || rec.DroppedBytes != 0) {
					t.Errorf("%s: reopen found %d records, %d bytes dropped; want only the synced one, clean", disk, len(rec.Records), rec.DroppedBytes)
				}
			}
		})
	}
}

// TestCompactionFaultLeavesJournalAlone fails each step of the compaction
// a torn tail triggers: OpenJournal reports the error, the journal is left
// byte for byte as it was, and no temp file is left beside it.
func TestCompactionFaultLeavesJournalAlone(t *testing.T) {
	torn, err := frameRecords([]byte(journalMagic), []record{submitRecord("j000001", 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	torn = append(torn, 0x40, 0, 0, 0, 0, 0, 0, 0, 'x')
	faults := map[string]func(*framingtest.Op) error{
		"create temp": failKind(framingtest.Create, syscall.EACCES),
		"short write": func(op *framingtest.Op) error {
			if op.Kind == framingtest.Write {
				op.Data = op.Data[:3]
			}
			return nil
		},
		"no space":    failKind(framingtest.Write, syscall.ENOSPC),
		"fsync error": failKind(framingtest.Sync, syscall.EIO),
		"rename":      failKind(framingtest.Rename, syscall.EXDEV),
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			fsys := framingtest.New(map[string][]byte{recorderJournal: torn})
			fsys.Hook = fault
			if jr, _, err := openJournal(fsys, recorderJournal); err == nil {
				jr.Close()
				t.Fatal("OpenJournal succeeded over a failed compaction")
			}
			if files := fsys.Files(); !reflect.DeepEqual(files, map[string][]byte{recorderJournal: torn}) {
				t.Errorf("the disk holds %d files after the failed compaction, want the journal alone, unchanged", len(files))
			}
		})
	}
}

// failKind is a hook failing every operation of one kind with err.
func failKind(kind framingtest.Kind, err error) func(*framingtest.Op) error {
	return func(op *framingtest.Op) error {
		if op.Kind == kind {
			return err
		}
		return nil
	}
}
