//go:build !unix

package framing

import (
	"bytes"
	"math"
	"os"
)

// readFile appends the file at name to buf, sizing buf from Stat so the
// common case is one read of the data and one that reports EOF.
func readFile(name string, buf *bytes.Buffer) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if info, err := f.Stat(); err == nil && info.Size() < math.MaxInt32 {
		buf.Grow(int(info.Size()) + bytes.MinRead) // room for the read that finds EOF
	}
	_, err = buf.ReadFrom(f)
	return err
}
