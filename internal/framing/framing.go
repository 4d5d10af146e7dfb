// Package framing owns the on-disk format the campaign journal and the
// simulation cache share: an 8-byte magic naming the file kind and format
// version, then frames of an 8-byte little-endian payload length, the
// payload's SHA-256 and the payload — any number of them in a journal,
// exactly one in a cache entry. Files are replaced whole (Replace), and
// all I/O goes through FS so a test can record and fault it.
package framing

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
)

// MagicSize is the length of the magic that starts every framed file.
const MagicSize = 8

// HeaderSize is the length of a frame's header: payload length + SHA-256.
const HeaderSize = 8 + sha256.Size

// Append appends payload, framed, to buf.
func Append(buf, payload []byte) []byte {
	buf = slices.Grow(buf, HeaderSize+len(payload))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	return append(append(buf, sum[:]...), payload...)
}

// Scan finds the frame boundaries of body (the bytes after the magic),
// reading 8 bytes per frame and no checksum: frame i is body[off[i]:off[i+1]],
// and everything after the last boundary is a torn tail. A corrupt length
// makes the boundaries after it meaningless, but its frame fails Payload.
func Scan(body []byte) []int {
	off := []int{0}
	for at := 0; len(body)-at >= HeaderSize; {
		n := binary.LittleEndian.Uint64(body[at:])
		if n > uint64(len(body)-at-HeaderSize) {
			break
		}
		at += HeaderSize + int(n)
		off = append(off, at)
	}
	return off
}

// Payload returns the payload of one whole frame, and whether the frame's
// declared length spans it exactly and its checksum matches.
func Payload(frame []byte) ([]byte, bool) {
	if len(frame) < HeaderSize || binary.LittleEndian.Uint64(frame) != uint64(len(frame)-HeaderSize) {
		return nil, false
	}
	payload := frame[HeaderSize:]
	return payload, sha256.Sum256(payload) == [sha256.Size]byte(frame[8:HeaderSize])
}

// Entry returns the payload of a single-frame file: magic, then one frame
// filling the rest of raw.
func Entry(raw []byte, magic string) ([]byte, bool) {
	frame, ok := bytes.CutPrefix(raw, []byte(magic))
	payload, valid := Payload(frame)
	return payload, ok && valid
}

// Replace atomically replaces the file at path with data, creating its
// directory if missing: a temp file beside it is written, closed and
// renamed over path, so a reader sees the old file or the new one, never
// part of either. When durable, the temp file is fsynced before the rename
// and the directory after it — without that the old name can come back
// after a power loss. The temp file is removed on every error path.
func Replace(fsys FS, path string, data []byte, durable bool) error {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && durable {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		fsys.Remove(tmp.Name()) // best effort: the error returned is the one that matters
		return err
	}
	if durable {
		return fsys.SyncDir(dir)
	}
	return nil
}

// FS is the file system the journal and the cache use.
type FS interface {
	ReadFile(name string, buf *bytes.Buffer) error // reads the whole file into buf
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	SyncDir(dir string) error // makes the directory's creates, renames and removes durable
}

// File is an open file of an FS.
type File interface {
	io.WriteCloser
	Sync() error
	Name() string
}

// OS is the operating system's file system.
type OS struct{}

// ReadFile appends the whole file to buf; a missing file is
// fs.ErrNotExist, and every other failure an *fs.PathError.
func (OS) ReadFile(name string, buf *bytes.Buffer) error { return readFile(name, buf) }

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return err
}
