package framingtest

import (
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"

	"github.com/nal-epfl/wehey/internal/framing"
)

// disk is what a log applies to: the namespace, live and as of each
// directory's last SyncDir, and every file's bytes.
type disk struct {
	live, durable map[string]int // path -> inode
	nodes         []*inode
}

type inode struct {
	data   []byte
	synced int   // how many bytes the last Sync covered
	writes []int // where each write since then starts
}

func newDisk() disk { return disk{live: map[string]int{}, durable: map[string]int{}} }

func (d *disk) apply(op Op) {
	switch op.Kind {
	case Create:
		d.nodes = append(d.nodes, &inode{})
		d.live[op.Path] = op.ino
	case Write:
		nd := d.nodes[op.ino]
		nd.writes, nd.data = append(nd.writes, len(nd.data)), append(nd.data, op.Data...)
	case Sync:
		nd := d.nodes[op.ino]
		nd.synced, nd.writes = len(nd.data), nil
	case Rename:
		d.live[op.To] = d.live[op.Path]
		delete(d.live, op.Path)
	case Remove:
		delete(d.live, op.Path)
	case SyncDir:
		inDir := func(p string, _ int) bool { return filepath.Dir(p) == op.Path }
		maps.DeleteFunc(d.durable, inDir)
		for p, ino := range d.live {
			if inDir(p, ino) {
				d.durable[p] = ino
			}
		}
	}
}

// Crash returns every disk image a crash right after the first n logged
// operations can leave, the one keeping no unsynced write first. The
// crash model:
//   - the bytes a Sync covered persist;
//   - a create, rename or remove persists only once a SyncDir of its
//     directory follows it;
//   - a file's writes since its last Sync persist as a prefix of their
//     bytes: none, all, or all before one write and that one torn — at
//     every byte of a magic or frame header it holds, and at up to 32
//     payload offsets per write drawn from seed.
func (r *Recorder) Crash(n int, seed int64) []map[string][]byte {
	d := newDisk()
	r.mu.Lock()
	for _, op := range r.log[:n] {
		d.apply(op)
	}
	r.mu.Unlock()

	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, 0, len(d.durable))
	for p := range d.durable {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	images := []map[string][]byte{{}}
	for _, p := range paths {
		nd := d.nodes[d.durable[p]]
		cuts := []int{nd.synced}
		for k, s := range nd.writes {
			e := len(nd.data)
			if k+1 < len(nd.writes) {
				e = nd.writes[k+1]
			}
			for _, t := range tears(nd.data[s:e], s == 0, rng) {
				cuts = append(cuts, s+t)
			}
			cuts = append(cuts, e)
		}
		var next []map[string][]byte
		for _, img := range images {
			for _, c := range cuts {
				img := maps.Clone(img)
				img[p] = nd.data[:c]
				next = append(next, img)
			}
		}
		images = next
	}
	return images
}

// tears returns the offsets strictly inside write w to tear it at: every
// byte of the magic when w starts its file, every byte of each frame
// header, and up to 32 payload offsets drawn from rng.
func tears(w []byte, fileStart bool, rng *rand.Rand) []int {
	var at []int
	base := 0
	if fileStart {
		base = min(framing.MagicSize, len(w))
		for t := 1; t <= base; t++ {
			at = append(at, t)
		}
	}
	off := framing.Scan(w[base:])
	for i := 0; i+1 < len(off); i++ {
		for t := base + off[i]; t <= base+off[i]+framing.HeaderSize; t++ {
			at = append(at, t)
		}
	}
	for k := 0; k < 32 && len(off) > 1; k++ {
		i := rng.Intn(len(off) - 1)
		if s, e := base+off[i]+framing.HeaderSize, base+off[i+1]; e-s > 1 {
			at = append(at, s+1+rng.Intn(e-s-1))
		}
	}
	slices.Sort(at)
	return slices.DeleteFunc(slices.Compact(at), func(t int) bool { return t <= 0 || t >= len(w) })
}
