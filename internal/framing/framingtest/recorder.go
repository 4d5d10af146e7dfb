// Package framingtest is framing's test double: an in-memory framing.FS
// that logs every operation changing what a crash leaves on disk, replays
// the log into each disk image a crash can leave (Crash), and lets a test
// gate or fail any operation (Hook).
package framingtest

import (
	"bytes"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/nal-epfl/wehey/internal/framing"
)

// Kind names an operation. Every kind but Read is logged.
type Kind int

const (
	Create Kind = iota // CreateTemp
	Write
	Sync
	Rename
	Remove
	SyncDir
	Read
)

// Op is one operation.
type Op struct {
	Kind Kind
	Path string // the file as opened; a SyncDir's directory; a rename's old path
	To   string // a rename's new path
	Data []byte // a write's bytes
	ino  int
}

// Recorder is an in-memory framing.FS. Directories are implicit.
type Recorder struct {
	// Hook, when set, runs before every operation, outside the recorder's
	// lock: it may block to gate the operation or return an error to fail
	// it unperformed. A hook that shortens a write's Data makes a short
	// write: the prefix is written and the write fails.
	Hook func(*Op) error

	mu    sync.Mutex
	disk  disk // the log applied: what the running program sees
	log   []Op
	temps int
}

// New returns a recorder whose disk holds image, durably: its log starts
// with the creates, writes and syncs that put image there.
func New(image map[string][]byte) *Recorder {
	r := &Recorder{disk: newDisk()}
	for p, b := range image {
		f, _ := r.CreateTemp(filepath.Dir(p), filepath.Base(p)) // no "*": named p
		f.Write(b)
		f.Sync()
		r.SyncDir(filepath.Dir(p))
	}
	return r
}

// do runs op: Hook, then under the lock prep (which may refuse it), then
// the op applied to the disk and logged.
func (r *Recorder) do(op *Op, prep func() error) error {
	if r.Hook != nil {
		if err := r.Hook(op); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := prep(); err != nil || op.Kind == Read {
		return err
	}
	r.disk.apply(*op)
	r.log = append(r.log, *op)
	return nil
}

// exists refuses an operation on a missing path; r.mu is held.
func (r *Recorder) exists(path string) error {
	if _, ok := r.disk.live[path]; !ok {
		return &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return nil
}

// Len returns the number of operations logged.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log)
}

// Files returns a copy of every file as the running program sees it.
func (r *Recorder) Files() map[string][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]byte{}
	for p, ino := range r.disk.live {
		out[p] = slices.Clone(r.disk.nodes[ino].data)
	}
	return out
}

func (r *Recorder) ReadFile(name string, buf *bytes.Buffer) error {
	return r.do(&Op{Kind: Read, Path: name}, func() error {
		if err := r.exists(name); err != nil {
			return err
		}
		buf.Write(r.disk.nodes[r.disk.live[name]].data)
		return nil
	})
}

// OpenFile opens an existing file; it never creates one.
func (r *Recorder) OpenFile(name string, _ int, _ fs.FileMode) (framing.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &file{r, name, r.disk.live[name]}, r.exists(name)
}

func (r *Recorder) CreateTemp(dir, pattern string) (framing.File, error) {
	r.mu.Lock()
	r.temps++
	op := &Op{Kind: Create, Path: filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(r.temps), 1))}
	r.mu.Unlock()
	err := r.do(op, func() error { op.ino = len(r.disk.nodes); return nil })
	return &file{r, op.Path, op.ino}, err
}

func (r *Recorder) Rename(oldpath, newpath string) error {
	return r.do(&Op{Kind: Rename, Path: oldpath, To: newpath}, func() error { return r.exists(oldpath) })
}

func (r *Recorder) Remove(name string) error {
	return r.do(&Op{Kind: Remove, Path: name}, func() error { return r.exists(name) })
}

func (r *Recorder) MkdirAll(string, fs.FileMode) error { return nil }

func (r *Recorder) SyncDir(dir string) error {
	return r.do(&Op{Kind: SyncDir, Path: dir}, func() error { return nil })
}

// file is an open handle; writes append.
type file struct {
	r    *Recorder
	name string
	ino  int
}

func (f *file) Name() string { return f.name }
func (f *file) Close() error { return nil }

func (f *file) Sync() error {
	return f.r.do(&Op{Kind: Sync, Path: f.name, ino: f.ino}, func() error { return nil })
}

func (f *file) Write(p []byte) (int, error) {
	op := &Op{Kind: Write, Path: f.name, Data: p, ino: f.ino}
	if err := f.r.do(op, func() error { op.Data = slices.Clone(op.Data); return nil }); err != nil {
		return 0, err
	}
	if len(op.Data) < len(p) {
		return len(op.Data), io.ErrShortWrite
	}
	return len(p), nil
}
