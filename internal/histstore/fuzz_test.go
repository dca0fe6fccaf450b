package histstore

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudgraph/internal/graph"
)

// baseSegment builds a well-formed unsealed window segment holding epochs
// 1..n, returning the raw file bytes, the per-record frames, and the
// original graphs keyed by epoch for content checks.
func baseSegment(n int) (raw []byte, frames [][]byte, originals map[uint64]*graph.Graph) {
	raw = append(raw, segHeader(kindWindow)...)
	originals = make(map[uint64]*graph.Graph, n)
	for i := 0; i < n; i++ {
		ep := uint64(i + 1)
		g := win(time.Duration(i)*time.Minute, uint64(100+i))
		frame := encodeRecord(nil, ep, ep, g)
		frames = append(frames, frame)
		raw = append(raw, frame...)
		originals[ep] = g
	}
	return raw, frames, originals
}

// FuzzRecoverTail is the torn-tail recovery contract under arbitrary tail
// damage: take a valid segment, cut trunc bytes off the end, append
// attacker-chosen garbage, and Open the directory. The store must never
// return an error, must replay a strictly increasing epoch sequence whose
// known epochs carry their original graphs, and must accept new appends
// afterwards — the crash-recovery path a kill -9 mid-write exercises.
func FuzzRecoverTail(f *testing.F) {
	raw, frames, originals := baseSegment(6)

	f.Add(uint32(0), []byte{})                 // intact file
	f.Add(uint32(7), []byte{})                 // torn mid-frame
	f.Add(uint32(len(raw)), []byte{})          // everything gone
	f.Add(uint32(len(raw)-3), []byte{})        // torn mid-header
	f.Add(uint32(0), []byte{9, 0, 0, 0, 1})    // plausible frame head, short body
	f.Add(uint32(0), frames[2])                // stale frame copy: epoch regresses
	f.Add(uint32(len(frames[5])), frames[5])   // last frame rewritten verbatim
	f.Add(uint32(3), append([]byte{}, raw...)) // whole file re-appended over a tear

	f.Fuzz(func(t *testing.T, trunc uint32, garbage []byte) {
		if len(garbage) > 1<<12 {
			garbage = garbage[:1<<12]
		}
		cut := int(trunc) % (len(raw) + 1)
		mutated := append([]byte{}, raw[:len(raw)-cut]...)
		mutated = append(mutated, garbage...)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("Open on damaged tail: %v", err)
		}
		defer s.Close()

		last := uint64(0)
		if err := s.Replay(func(ep uint64, g *graph.Graph) error {
			if ep <= last {
				t.Fatalf("replayed epochs regress: %d after %d", ep, last)
			}
			last = ep
			if want, ok := originals[ep]; ok {
				if d := graph.Diff(want, g); !diffEmpty(d) {
					t.Fatalf("epoch %d replayed with drift: %+v", ep, d)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if got := s.LastEpoch(); got != last {
			t.Fatalf("LastEpoch = %d, replay ended at %d", got, last)
		}

		// Recovery must leave the store writable: the daemon resumes at
		// LastEpoch+1 immediately after replay.
		next := last + 1
		if err := s.Append(next, win(10*time.Minute, 555)); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		g, err := s.Get(next)
		if err != nil || g.TotalTraffic().Bytes == 0 {
			t.Fatalf("Get(%d) after recovery: %v", next, err)
		}
	})
}

// FuzzDecodeGraph is the codec's contract on arbitrary bytes, the graph
// part of a CRC-valid record that recovery would hand it: no panic, no
// allocation beyond what the input can describe, ErrCorrupt on any
// rejection, and an accepted graph that re-encodes to decodable bytes.
func FuzzDecodeGraph(f *testing.F) {
	f.Add(EncodeGraph(randomGraph(rand.New(rand.NewSource(1)), t0)))
	f.Add(EncodeGraph(win(0, 100)))
	f.Add([]byte{})
	// A 21-byte record claiming 2^31-1 nodes: must be rejected before the
	// node table is allocated.
	huge := make([]byte, 17, 21)
	f.Add(binary.LittleEndian.AppendUint32(huge, 1<<31-1))

	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := DecodeGraph(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			return
		}
		if g.NumNodes() > len(b)/minNodeSize {
			t.Fatalf("%d nodes from %d bytes", g.NumNodes(), len(b))
		}
		if _, err := DecodeGraph(EncodeGraph(g)); err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
	})
}
