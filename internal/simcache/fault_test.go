package simcache

import (
	"reflect"
	"syscall"
	"testing"

	"github.com/nal-epfl/wehey/internal/framing/framingtest"
)

// failing returns a hook failing every operation of one kind with err.
func failing(kind framingtest.Kind, err error) func(*framingtest.Op) error {
	return func(op *framingtest.Op) error {
		if op.Kind == kind {
			return err
		}
		return nil
	}
}

// TestStoreFaultCountsAWriteError fails each step of storing an entry:
// the computed value is returned, one write error is counted, and the disk
// holds neither a temp file nor an entry.
func TestStoreFaultCountsAWriteError(t *testing.T) {
	faults := map[string]func(*framingtest.Op) error{
		"create temp": failing(framingtest.Create, syscall.EMFILE),
		"short write": func(op *framingtest.Op) error {
			if op.Kind == framingtest.Write {
				op.Data = op.Data[:len(op.Data)/2]
			}
			return nil
		},
		"no space": failing(framingtest.Write, syscall.ENOSPC),
		"rename":   failing(framingtest.Rename, syscall.EXDEV),
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			fsys := framingtest.New(nil)
			fsys.Hook = fault
			c, err := newDisk(fsys, "cache", stringCodec)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Get(KeyOf("v1", []byte("spec")), func() string { return "computed" }); got != "computed" {
				t.Fatalf("Get = %q", got)
			}
			if st := c.Stats(); st.WriteErrors != 1 || st.Misses != 1 || st.BytesWritten != 0 {
				t.Errorf("stats = %+v, want one miss and one write error", st)
			}
			if files := fsys.Files(); len(files) != 0 {
				t.Errorf("the failed store left %d files", len(files))
			}
		})
	}
}

// TestReadFaultLeavesEntryInPlace: an entry that fails to read (EIO) is a
// read error, not a corrupt entry: the value is computed, and the entry is
// neither deleted nor overwritten.
func TestReadFaultLeavesEntryInPlace(t *testing.T) {
	fsys := framingtest.New(nil)
	key := KeyOf("v1", []byte("spec"))
	cold, err := newDisk(fsys, "cache", stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	cold.Get(key, func() string { return "stored" })
	stored := fsys.Files()

	fsys.Hook = failing(framingtest.Read, syscall.EIO)
	c, err := newDisk(fsys, "cache", stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(key, func() string { return "computed" }); got != "computed" {
		t.Fatalf("Get = %q", got)
	}
	if st := c.Stats(); st.ReadErrors != 1 || st.Misses != 1 || st.Corrupt != 0 || st.WriteErrors != 0 || st.BytesWritten != 0 {
		t.Errorf("stats = %+v, want read-errors=1 misses=1 and nothing else", st)
	}
	if files := fsys.Files(); !reflect.DeepEqual(files, stored) {
		t.Error("the unreadable entry was removed or rewritten")
	}
}
