//go:build unix

package framing

import (
	"bytes"
	"io/fs"
	"math"
	"syscall"
)

// maxRead caps one read(2): some kernels refuse a count of 2 GiB or more
// (os.File caps its reads at 1 GiB for the same reason).
const maxRead = 1 << 30

// readFile appends the file at name to buf with five system calls when
// the file does not change under it: open, fstat, the read that fills the
// space Grow made, the read that finds EOF, close. It bypasses os.Open,
// which on Linux treats every file as pollable: it sets O_NONBLOCK, tries
// to register the descriptor with the netpoller (epoll_ctl fails with
// EPERM for a regular file), clears O_NONBLOCK again and attaches a
// finalizer — ten system calls for a 420-byte cache entry.
//
// Errors are *fs.PathError, so a missing file is fs.ErrNotExist; an
// interrupted call is retried, and the descriptor is closed on every path.
func readFile(name string, buf *bytes.Buffer) error {
	fd, err := openRead(name)
	if err != nil {
		return &fs.PathError{Op: "open", Path: name, Err: err}
	}
	defer syscall.Close(fd) // read-only: close has nothing to report
	var st syscall.Stat_t
	if fstat(fd, &st) == nil && st.Size < math.MaxInt32 {
		buf.Grow(int(st.Size) + 1) // room for the read that finds EOF
	}
	for {
		if buf.Available() == 0 {
			buf.Grow(bytes.MinRead) // the file grew, or fstat failed
		}
		p := buf.AvailableBuffer()
		p = p[:min(cap(p), maxRead)]
		n, err := syscall.Read(fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return &fs.PathError{Op: "read", Path: name, Err: err}
		case n == 0:
			return nil
		}
		buf.Write(p[:n]) // p is buf's own free space: this only extends it
	}
}

func openRead(name string) (int, error) {
	for {
		fd, err := syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			return fd, err
		}
	}
}

func fstat(fd int, st *syscall.Stat_t) error {
	for {
		if err := syscall.Fstat(fd, st); err != syscall.EINTR {
			return err
		}
	}
}
