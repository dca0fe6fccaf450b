package core

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/nicsim"
	"cloudgraph/internal/summarize"
)

var (
	ipA = netip.MustParseAddr("10.0.0.1")
	ipB = netip.MustParseAddr("10.0.0.2")
	t0  = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)
)

func rec(at time.Time, lport uint16, bytes uint64) flowlog.Record {
	return flowlog.Record{
		Time: at, LocalIP: ipA, LocalPort: lport, RemoteIP: ipB, RemotePort: 443,
		PacketsSent: 1, BytesSent: bytes,
	}
}

func TestWindowerSplitsByHour(t *testing.T) {
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	w.Add(rec(t0.Add(5*time.Minute), 1, 100))
	w.Add(rec(t0.Add(50*time.Minute), 2, 200))
	w.Add(rec(t0.Add(70*time.Minute), 3, 300)) // next hour: closes first
	if w.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (first hour closed)", w.Pending())
	}
	gs := w.Flush()
	if len(gs) != 2 {
		t.Fatalf("windows = %d, want 2", len(gs))
	}
	if gs[0].TotalTraffic().Bytes != 300 || gs[1].TotalTraffic().Bytes != 300 {
		t.Errorf("window traffic = %d, %d", gs[0].TotalTraffic().Bytes, gs[1].TotalTraffic().Bytes)
	}
	if !gs[0].Start.Equal(t0) {
		t.Errorf("window 0 start = %v", gs[0].Start)
	}
}

func TestWindowerOnComplete(t *testing.T) {
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	var got []*graph.Graph
	w.OnComplete = func(g *graph.Graph) { got = append(got, g) }
	w.Add(rec(t0, 1, 1))
	w.Add(rec(t0.Add(time.Hour), 2, 2))
	if len(got) != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", len(got))
	}
	w.Flush()
	if len(got) != 2 {
		t.Errorf("after Flush: %d, want 2", len(got))
	}
}

func TestWindowerIgnoresInvalid(t *testing.T) {
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	w.Add(flowlog.Record{})
	if w.Pending() != 0 {
		t.Error("invalid record opened a window")
	}
}

func TestEngineEndToEnd(t *testing.T) {
	// Drive a small synthetic cluster through the engine for three hours:
	// learn on hour one, monitor an attack in hour three.
	spec := cluster.Spec{
		Name: "core-e2e", Seed: 5,
		Roles: []cluster.RoleSpec{
			{Name: "fe", Count: 4, Port: 443},
			{Name: "be", Count: 3, Port: 9000},
			{Name: "client", Count: 10, External: true},
		},
		Links: []cluster.LinkSpec{
			{Src: "client", Dst: "fe", FlowsPerMin: 6, Fanout: 2, FwdBytes: 500, RevBytes: 8000},
			{Src: "fe", Dst: "be", FlowsPerMin: 20, Fanout: -1, FwdBytes: 1000, RevBytes: 3000},
		},
	}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Window: time.Hour})

	// Hours 1 and 2: clean traffic.
	if _, err := c.Run(t0, 120, e); err != nil {
		t.Fatal(err)
	}
	// Hour 3: a frontend goes rogue and scans its own role's peers —
	// fe-fe contact never occurs in the baseline, so every probe violates
	// the learned reachability.
	c.AddAttack(cluster.PortScan{
		AttackerRole: "fe", AttackerIdx: 0, TargetRole: "fe",
		PortsPerMin: 30, Start: t0.Add(2 * time.Hour), Duration: time.Hour,
	})
	if _, err := c.Run(t0.Add(2*time.Hour), 60, e); err != nil {
		t.Fatal(err)
	}
	windows := e.Flush()
	if len(windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(windows))
	}

	assign, err := e.Learn(windows[0])
	if err != nil {
		t.Fatal(err)
	}
	if assign.NumSegments() < 2 {
		t.Errorf("segments = %d, want at least client/fe/be structure", assign.NumSegments())
	}

	// Hour two should be mostly quiet; hour three should alert.
	repClean := e.Monitor(windows[1])
	repAttack := e.Monitor(windows[2])
	if repClean == nil || repAttack == nil {
		t.Fatal("Monitor returned nil after Learn")
	}
	if len(repAttack.Violations) == 0 {
		t.Error("attack window produced no reachability violations")
	}
	if repAttack.Alerts == 0 {
		t.Error("attack alerts were all suppressed")
	}

	// Anomaly scoring sees the drift, though with only 3 windows it
	// cannot flag; just confirm the drift ordering.
	scores := e.Anomalies(summarize.AnomalyOptions{MinHistory: 1})
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	if scores[2].NewPairs == 0 {
		t.Error("attack window should add new communicating pairs")
	}

	if e.Summary().Stats.Nodes == 0 {
		t.Error("summary empty")
	}
	if e.Cost().Records == 0 {
		t.Error("meter recorded nothing")
	}
}

func TestEngineMonitorBeforeLearn(t *testing.T) {
	e := NewEngine(Config{})
	if e.Monitor(graph.New(graph.FacetIP)) != nil {
		t.Error("Monitor before Learn should be nil")
	}
	if a, r := e.Baseline(); a != nil || r != nil {
		t.Error("baseline should be empty")
	}
	if e.Latest() != nil {
		t.Error("Latest on empty engine")
	}
	if e.Summary().Stats.Nodes != 0 {
		t.Error("Summary on empty engine")
	}
}

func TestEngineMaxWindows(t *testing.T) {
	e := NewEngine(Config{Window: time.Hour, MaxWindows: 2})
	for h := 0; h < 5; h++ {
		e.Ingest([]flowlog.Record{rec(t0.Add(time.Duration(h)*time.Hour), uint16(h+1), 10)})
	}
	ws := e.Flush()
	if len(ws) != 2 {
		t.Errorf("retained windows = %d, want 2", len(ws))
	}
}

func TestEngineCollapseApplied(t *testing.T) {
	e := NewEngine(Config{
		Window:   time.Hour,
		Collapse: graph.CollapseOptions{Threshold: 0.01},
	})
	recs := []flowlog.Record{rec(t0, 1, 1_000_000)}
	for i := 0; i < 300; i++ {
		r := flowlog.Record{
			Time: t0, LocalIP: ipA, LocalPort: uint16(1000 + i),
			RemoteIP: netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}), RemotePort: 80,
			PacketsSent: 1, BytesSent: 10,
		}
		recs = append(recs, r)
	}
	e.Ingest(recs)
	ws := e.Flush()
	if len(ws) != 1 {
		t.Fatal("expected one window")
	}
	if !ws[0].HasNode(graph.Collapsed) {
		t.Error("collapse was not applied to the completed window")
	}
}

func TestEngineAsCollector(t *testing.T) {
	var _ nicsim.Collector = NewEngine(Config{})
}

func TestMonitorAlertsOnUnknownEndpoint(t *testing.T) {
	e := NewEngine(Config{Window: time.Hour})
	base := graph.New(graph.FacetIP)
	base.AddEdge(graph.IPNode(ipA), graph.IPNode(ipB), graph.Counters{Bytes: 1000, Conns: 1})
	if _, err := e.Learn(base); err != nil {
		t.Fatal(err)
	}
	// New window: ipA starts talking to a brand-new external endpoint.
	next := graph.New(graph.FacetIP)
	next.AddEdge(graph.IPNode(ipA), graph.IPNode(ipB), graph.Counters{Bytes: 1000, Conns: 1})
	c2 := graph.IPNode(netip.MustParseAddr("198.51.100.66"))
	next.AddEdge(graph.IPNode(ipA), c2, graph.Counters{Bytes: 1 << 30, Conns: 1})
	rep := e.Monitor(next)
	if rep == nil || len(rep.Violations) != 1 {
		t.Fatalf("violations = %+v", rep)
	}
	if len(rep.Unknown) != 1 || rep.Alerts != 1 {
		t.Errorf("unknown endpoint should alert: unknown=%d alerts=%d", len(rep.Unknown), rep.Alerts)
	}
}

func TestWindowerFlushDrains(t *testing.T) {
	// Regression: completed graphs used to accumulate in the Windower
	// forever, so every Flush re-returned the entire history and a
	// long-running process retained every window.
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	w.Add(rec(t0, 1, 100))
	w.Add(rec(t0.Add(time.Hour), 2, 200))
	if got := len(w.Flush()); got != 2 {
		t.Fatalf("first Flush = %d windows, want 2", got)
	}
	if got := len(w.Flush()); got != 0 {
		t.Errorf("second Flush re-returned %d windows, want 0 (drained)", got)
	}
	if w.Retained() != 0 {
		t.Errorf("windower retains %d graphs after Flush", w.Retained())
	}
	// The windower stays usable after a drain.
	w.Add(rec(t0.Add(2*time.Hour), 3, 300))
	if got := len(w.Flush()); got != 1 {
		t.Errorf("Flush after drain = %d windows, want 1", got)
	}
}

func TestWindowerOnCompleteDoesNotRetain(t *testing.T) {
	// Regression: graphs delivered through OnComplete were also appended
	// to the internal done list, holding every window in memory twice.
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	var got int
	w.OnComplete = func(*graph.Graph) { got++ }
	for h := 0; h < 6; h++ {
		w.Add(rec(t0.Add(time.Duration(h)*time.Hour), uint16(h+1), 10))
	}
	w.Flush()
	if got != 6 {
		t.Fatalf("OnComplete fired %d times, want 6", got)
	}
	if w.Retained() != 0 {
		t.Errorf("windower retains %d graphs alongside the OnComplete consumer", w.Retained())
	}
}

func TestEngineRetentionBoundedWithMaxWindows(t *testing.T) {
	// Regression for the same leak at engine level: with MaxWindows set,
	// nothing below the engine may keep unbounded window history.
	e := NewEngine(Config{Window: time.Hour, MaxWindows: 2})
	for h := 0; h < 10; h++ {
		e.Ingest([]flowlog.Record{rec(t0.Add(time.Duration(h)*time.Hour), uint16(h+1), 10)})
	}
	if got := len(e.Flush()); got != 2 {
		t.Fatalf("retained windows = %d, want 2", got)
	}
	for _, sh := range e.shards {
		if n := sh.windower.Retained(); n != 0 {
			t.Errorf("shard windower retains %d graphs, want 0", n)
		}
	}
	if len(e.pending) != 0 {
		t.Errorf("%d partial windows left pending after Flush", len(e.pending))
	}
}

// engineRecords builds a deterministic multi-window record stream with
// enough distinct flows to spread across shards, including double-reported
// intra-subscription flows that must deduplicate.
func engineRecords(t *testing.T, hours int) []flowlog.Record {
	t.Helper()
	var recs []flowlog.Record
	for h := 0; h < hours; h++ {
		for m := 0; m < 60; m += 5 {
			at := t0.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute)
			for i := 0; i < 40; i++ {
				r := flowlog.Record{
					Time:      at,
					LocalIP:   netip.AddrFrom4([4]byte{10, 0, byte(i / 8), byte(i%8 + 1)}),
					LocalPort: uint16(30000 + i), RemoteIP: netip.AddrFrom4([4]byte{10, 0, 9, byte(i%16 + 1)}),
					RemotePort:  443,
					PacketsSent: 2, BytesSent: uint64(100 * (i + 1)), PacketsRcvd: 1, BytesRcvd: 50,
				}
				recs = append(recs, r)
				if i%2 == 0 {
					recs = append(recs, r.Reverse()) // second NIC's report
				}
			}
		}
	}
	return recs
}

func TestEngineShardEquivalence(t *testing.T) {
	// The sharded hot path must be invisible in the output: same record
	// stream, same merged windows, at any shard width.
	recs := engineRecords(t, 3)
	base := NewEngine(Config{Window: time.Hour, Shards: 1})
	base.Ingest(recs)
	want := base.Flush()
	if len(want) != 3 {
		t.Fatalf("single-shard windows = %d, want 3", len(want))
	}
	for _, shards := range []int{2, 4, 8} {
		e := NewEngine(Config{Window: time.Hour, Shards: shards})
		for i := 0; i < len(recs); i += 97 { // minibatches, like the wire path
			end := i + 97
			if end > len(recs) {
				end = len(recs)
			}
			e.Ingest(recs[i:end])
		}
		got := e.Flush()
		if len(got) != len(want) {
			t.Fatalf("shards=%d: windows = %d, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if !got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) {
				t.Errorf("shards=%d window %d bounds = [%v,%v), want [%v,%v)",
					shards, i, got[i].Start, got[i].End, want[i].Start, want[i].End)
			}
			if got[i].NumNodes() != want[i].NumNodes() || got[i].NumEdges() != want[i].NumEdges() {
				t.Errorf("shards=%d window %d = %d nodes / %d edges, want %d / %d",
					shards, i, got[i].NumNodes(), got[i].NumEdges(), want[i].NumNodes(), want[i].NumEdges())
			}
			if gt, wt := got[i].TotalTraffic(), want[i].TotalTraffic(); gt != wt {
				t.Errorf("shards=%d window %d traffic = %+v, want %+v", shards, i, gt, wt)
			}
		}
		cost := e.Cost()
		if cost.Workers != shards || len(cost.Shards) != shards {
			t.Errorf("cost workers = %d shards = %d, want %d", cost.Workers, len(cost.Shards), shards)
		}
		var perShard int64
		for _, st := range cost.Shards {
			perShard += st.Records
		}
		if perShard != int64(len(recs)) {
			t.Errorf("per-shard records sum to %d, want %d", perShard, len(recs))
		}
	}
}

func TestEngineShardedConcurrentIngest(t *testing.T) {
	// Many goroutines ingesting one window's records concurrently (run
	// with -race): the merged window must cover the same nodes and edges
	// as a serial single-shard pass, and the meter must not lose records.
	recs := engineRecords(t, 1)
	serial := NewEngine(Config{Window: time.Hour})
	serial.Ingest(recs)
	want := serial.Flush()[0]

	e := NewEngine(Config{Window: time.Hour, Shards: 4})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 50; i < len(recs); i += workers * 50 {
				end := i + 50
				if end > len(recs) {
					end = len(recs)
				}
				e.Ingest(recs[i:end])
			}
		}(w)
	}
	wg.Wait()
	ws := e.Flush()
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	if ws[0].NumNodes() != want.NumNodes() || ws[0].NumEdges() != want.NumEdges() {
		t.Errorf("concurrent window = %d nodes / %d edges, want %d / %d",
			ws[0].NumNodes(), ws[0].NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got := e.Cost().Records; got != int64(len(recs)) {
		t.Errorf("meter records = %d, want %d", got, len(recs))
	}
}

func TestMonitorBaselinePinnedAcrossTrim(t *testing.T) {
	// Regression: Monitor used e.windows[0] as the proportionality base,
	// which silently became a different window once MaxWindows trimmed
	// history. The base is now pinned at Learn time.
	e := NewEngine(Config{Window: time.Hour, MaxWindows: 2})
	e.Ingest([]flowlog.Record{rec(t0, 1, 1000)})
	ws := e.Flush()
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	if _, err := e.Learn(ws[0]); err != nil {
		t.Fatal(err)
	}

	next := graph.New(graph.FacetIP)
	next.AddEdge(graph.IPNode(ipA), graph.IPNode(ipB), graph.Counters{Bytes: 5000, Conns: 1})
	before := e.Monitor(next)
	if before == nil || len(before.Growth) == 0 {
		t.Fatalf("no growth assessment before trim: %+v", before)
	}

	// Push enough much-louder windows through to trim the Learn window
	// out of history.
	for h := 1; h < 5; h++ {
		e.Ingest([]flowlog.Record{rec(t0.Add(time.Duration(h)*time.Hour), uint16(h), 900000)})
	}
	if got := len(e.Flush()); got != 2 {
		t.Fatalf("retained windows = %d, want 2", got)
	}

	after := e.Monitor(next)
	if after == nil || len(after.Growth) != len(before.Growth) {
		t.Fatalf("growth assessment changed shape after trim: %+v vs %+v", after, before)
	}
	for i := range before.Growth {
		if after.Growth[i] != before.Growth[i] {
			t.Errorf("growth[%d] drifted after trim: %+v vs %+v", i, after.Growth[i], before.Growth[i])
		}
	}
	if before.Growth[0].BaseBytes != 1000 {
		t.Errorf("baseline bytes = %d, want the Learn window's 1000", before.Growth[0].BaseBytes)
	}
}

// TestEngineConsumerSeesEveryWindow: a consumer declared in
// Config.Consumers receives every completed window, in epoch order, by the
// time Flush returns.
func TestEngineConsumerSeesEveryWindow(t *testing.T) {
	var got []uint64
	e := NewEngine(Config{Window: time.Hour, Consumers: []ConsumerSpec{{
		Name: "probe",
		Fn:   func(epoch uint64, _ *graph.Graph) { got = append(got, epoch) },
	}}})
	defer e.Close()
	e.Ingest([]flowlog.Record{rec(t0, 1, 10)})
	e.Ingest([]flowlog.Record{rec(t0.Add(time.Hour), 2, 10)})
	e.Flush()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("consumer saw epochs %v, want [1 2]", got)
	}
}
