package framing

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestReadFileMatchesOS: OS.ReadFile appends exactly what os.ReadFile
// returns, to whatever buf already holds, for sizes around the buffer
// growth steps; a missing file is an "open" *fs.PathError that is
// fs.ErrNotExist, and a directory fails without reading as missing.
func TestReadFileMatchesOS(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 511, 512, 513, 78 << 10, 4 << 20} {
		path := filepath.Join(dir, fmt.Sprint(size))
		data := make([]byte, size)
		rng.Read(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, prefix := range []string{"", "held bytes"} {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf := bytes.NewBufferString(prefix)
			if err := (OS{}).ReadFile(path, buf); err != nil {
				t.Fatalf("size %d, prefix %q: %v", size, prefix, err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, append([]byte(prefix), want...)) {
				t.Fatalf("size %d, prefix %q: read %d bytes, want %d after the prefix", size, prefix, len(got), len(want))
			}
		}
	}

	// A file whose size fstat does not know: read to EOF all the same.
	if want, err := os.ReadFile("/proc/version"); err == nil {
		var buf bytes.Buffer
		if err := (OS{}).ReadFile("/proc/version", &buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("/proc/version: read %q, %v; want %q", buf.Bytes(), err, want)
		}
	}

	var perr *fs.PathError
	err := (OS{}).ReadFile(filepath.Join(dir, "missing"), new(bytes.Buffer))
	if !errors.As(err, &perr) || perr.Op != "open" || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %#v, want an open *fs.PathError that is fs.ErrNotExist", err)
	}
	err = (OS{}).ReadFile(dir, new(bytes.Buffer))
	if !errors.As(err, &perr) || errors.Is(err, fs.ErrNotExist) {
		t.Errorf("directory: %#v, want an *fs.PathError that is not fs.ErrNotExist", err)
	}
}

// TestReadFileClosesEveryDescriptor: reads that succeed, find nothing or
// fail after the open leave the process's descriptor count where it was.
func TestReadFileClosesEveryDescriptor(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "entry")
	if err := os.WriteFile(file, make([]byte, 420), 0o644); err != nil {
		t.Fatal(err)
	}
	paths := []string{file, filepath.Join(dir, "missing"), dir}
	before := openFDs()
	var buf bytes.Buffer
	for i := 0; i < 1000; i++ {
		buf.Reset()
		err := (OS{}).ReadFile(paths[i%len(paths)], &buf)
		if (err == nil) != (i%len(paths) == 0) {
			t.Fatalf("read %d of %s: %v", i, paths[i%len(paths)], err)
		}
	}
	if after := openFDs(); after != before {
		t.Errorf("%d descriptors open before 1 000 reads, %d after", before, after)
	}
}

// osReadFile is OS.ReadFile's earlier body, through os.Open — the os arm of
// BenchmarkReadFile.
func osReadFile(name string, buf *bytes.Buffer) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if info, err := f.Stat(); err == nil && info.Size() < math.MaxInt32 {
		buf.Grow(int(info.Size()) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(f)
	return err
}

// BenchmarkReadFile reads a verdict-sized (0.4 KB) and a result-sized
// (78 KB) cache entry into a reused buffer, directly (OS.ReadFile) and
// through os.Open, on one goroutine and on GOMAXPROCS of them.
func BenchmarkReadFile(b *testing.B) {
	dir := b.TempDir()
	for _, read := range []struct {
		name string
		fn   func(string, *bytes.Buffer) error
	}{{"direct", OS{}.ReadFile}, {"os", osReadFile}} {
		for _, size := range []struct {
			name string
			n    int
		}{{"verdict", 420}, {"result", 78 << 10}} {
			path := filepath.Join(dir, size.name)
			if err := os.WriteFile(path, make([]byte, size.n), 0o644); err != nil {
				b.Fatal(err)
			}
			readOnce := func(buf *bytes.Buffer) error {
				buf.Reset()
				if err := read.fn(path, buf); err != nil || buf.Len() != size.n {
					return fmt.Errorf("read %d bytes, %v", buf.Len(), err)
				}
				return nil
			}
			name := "read=" + read.name + "/size=" + size.name
			b.Run(name+"/serial", func(b *testing.B) {
				var buf bytes.Buffer
				b.SetBytes(int64(size.n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := readOnce(&buf); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/parallel", func(b *testing.B) {
				b.SetBytes(int64(size.n))
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					var buf bytes.Buffer
					for pb.Next() {
						if err := readOnce(&buf); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}
