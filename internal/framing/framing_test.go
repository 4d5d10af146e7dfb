package framing

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFrames feeds arbitrary bytes to the readers: Scan and Payload never
// panic or reach past the input, every accepted frame re-Appends to the
// bytes it was read from, and the accepted frames span a prefix of the
// input. Entry accepts exactly a magic followed by one whole frame.
func FuzzFrames(f *testing.F) {
	two := Append(Append(nil, []byte("first")), []byte(`{"op":"done"}`))
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Add(two[:HeaderSize-1])
	f.Add(Append(nil, nil))
	f.Add(append(Append(nil, []byte("x")), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	flipped := bytes.Clone(two)
	flipped[8] ^= 1
	f.Add(flipped)
	f.Add(append([]byte("WHYSIMC1"), Append(nil, []byte("entry"))...))

	f.Fuzz(func(t *testing.T, b []byte) {
		in := bytes.Clone(b)
		off := Scan(b)
		if off[0] != 0 || off[len(off)-1] > len(b) {
			t.Fatalf("boundaries %v outside %d bytes", off, len(b))
		}
		var again []byte
		for i := 0; i+1 < len(off); i++ {
			if off[i+1]-off[i] < HeaderSize {
				t.Fatalf("frame %d spans %d bytes, under a header", i, off[i+1]-off[i])
			}
			payload, ok := Payload(b[off[i]:off[i+1]])
			if !ok {
				break
			}
			again = Append(again, payload)
		}
		if !bytes.HasPrefix(b, again) {
			t.Fatalf("the %d accepted bytes do not re-Append to a prefix of the input", len(again))
		}
		if payload, ok := Entry(b, "WHYSIMC1"); ok && !bytes.Equal(Append([]byte("WHYSIMC1"), payload), b) {
			t.Fatalf("accepted entry does not re-Append to the input")
		}
		if !bytes.Equal(b, in) {
			t.Fatal("a reader modified its input")
		}
	})
}

// TestPayloadRefusesAMisframedSpan: a frame whose declared length does not
// span it exactly is refused even when its checksum matches, which is what
// makes Entry refuse trailing bytes.
func TestPayloadRefusesAMisframedSpan(t *testing.T) {
	frame := Append(nil, []byte("payload"))
	if p, ok := Payload(frame); !ok || string(p) != "payload" {
		t.Fatalf("Payload = %q, %v", p, ok)
	}
	if _, ok := Payload(append(frame, 0)); ok {
		t.Error("a frame with a trailing byte was accepted")
	}
	if _, ok := Entry(append([]byte("WHYSIMC1"), frame...), "WHYJRNL1"); ok {
		t.Error("an entry under another magic was accepted")
	}
}

// TestReplaceOnOS replaces a file durably and leaves nothing beside it; a
// rename that cannot happen leaves no temp file either.
func TestReplaceOnOS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	for _, data := range []string{"old", "new"} {
		if err := Replace(OS{}, path, []byte(data), true); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := (OS{}).ReadFile(path, &buf); err != nil || buf.String() != "new" {
		t.Fatalf("read back %q, %v", buf.String(), err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replace(OS{}, filepath.Join(dir, "sub"), []byte("x"), false); err == nil {
		t.Error("replacing a non-empty directory succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
		t.Errorf("temp files left: %v", left)
	}
}
