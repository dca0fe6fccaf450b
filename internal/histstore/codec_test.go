package histstore

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"cloudgraph/internal/graph"
)

// randomGraph builds an hour window of random IPv4 traffic plus one of
// every exotic node kind: IPv6, IP-port, service, collapsed and isolated.
func randomGraph(rng *rand.Rand, start time.Time) *graph.Graph {
	g := graph.New(graph.FacetIP)
	g.Start, g.End = start, start.Add(time.Hour)
	for i := 0; i < 20+rng.Intn(30); i++ {
		a := graph.IPNode(netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + rng.Intn(30))}))
		b := graph.IPNode(netip.AddrFrom4([4]byte{10, 0, 1, byte(1 + rng.Intn(30))}))
		g.AddEdge(a, b, graph.Counters{
			Bytes:   uint64(rng.Intn(1_000_000)),
			Packets: uint64(rng.Intn(1000)),
			Conns:   uint64(1 + rng.Intn(10)),
		})
	}
	g.AddEdge(graph.IPNode(netip.MustParseAddr("2001:db8::1")), graph.Collapsed, graph.Counters{Bytes: 7})
	g.AddEdge(graph.IPPortNode(netip.MustParseAddr("10.9.9.9"), 443), graph.ServiceNode("svc"), graph.Counters{Bytes: 9, Conns: 1})
	g.AddNode(graph.IPNode(netip.MustParseAddr("192.0.2.200")))
	return g
}

// sameGraph fails unless a and b agree on metadata, node list and every
// directed edge's counters.
func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.Facet != b.Facet || !a.Start.Equal(b.Start) || !a.End.Equal(b.End) {
		t.Fatalf("meta mismatch: %v %v-%v vs %v %v-%v", a.Facet, a.Start, a.End, b.Facet, b.Start, b.End)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	an, bn := a.Nodes(), b.Nodes()
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("node %d: %v vs %v", i, an[i], bn[i])
		}
	}
	for _, n := range an {
		for _, m := range an {
			ae, be := a.OutEdge(n, m), b.OutEdge(n, m)
			switch {
			case ae == nil && be == nil:
			case ae == nil || be == nil:
				t.Fatalf("edge presence mismatch %v->%v", n, m)
			case ae.Counters != be.Counters:
				t.Fatalf("edge %v->%v: %+v vs %+v", n, m, ae.Counters, be.Counters)
			}
		}
	}
}

// TestGraphCodecRoundTrip: every window decodes to the graph that was
// encoded.
func TestGraphCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for h := 0; h < 5; h++ {
		want := randomGraph(rng, t0.Add(time.Duration(h)*time.Hour))
		got, err := DecodeGraph(EncodeGraph(want))
		if err != nil {
			t.Fatalf("window %d: %v", h, err)
		}
		sameGraph(t, want, got)
	}
}

// TestGraphCodecTruncated: every truncation of an encoded window is
// rejected as corrupt.
func TestGraphCodecTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for h := 0; h < 5; h++ {
		b := EncodeGraph(randomGraph(rng, t0.Add(time.Duration(h)*time.Hour)))
		for cut := 0; cut < len(b); cut++ {
			if _, err := DecodeGraph(b[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("window %d cut to %d of %d bytes: err = %v, want ErrCorrupt", h, cut, len(b), err)
			}
		}
	}
}

// TestHistoricalDiffFromHistory is the §1 "what changed?" use case: load
// two past windows from the history store by epoch and diff them.
func TestHistoricalDiffFromHistory(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := graph.New(graph.FacetIP)
	a.Start, a.End = t0, t0.Add(time.Hour)
	a.AddEdge(graph.IPNode(netip.MustParseAddr("10.0.0.1")), graph.IPNode(netip.MustParseAddr("10.0.0.2")), graph.Counters{Bytes: 100})
	b := graph.New(graph.FacetIP)
	b.Start, b.End = t0.Add(time.Hour), t0.Add(2*time.Hour)
	b.AddEdge(graph.IPNode(netip.MustParseAddr("10.0.0.1")), graph.IPNode(netip.MustParseAddr("10.0.0.9")), graph.Counters{Bytes: 500})
	if err := s.Append(1, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(2, b); err != nil {
		t.Fatal(err)
	}
	old, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.Diff(old, cur)
	if len(d.AddedPairs) != 1 || len(d.RemovedPairs) != 1 {
		t.Errorf("historical diff = %+v", d)
	}
}
