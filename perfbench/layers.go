package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"time"

	"cloudgraph/internal/counterfactual"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/policy"
	"cloudgraph/internal/segment"
	"cloudgraph/internal/summarize"
)

// readLayers derives a pass's per-layer figures from what the daemon
// already exposes: the realm COGS meters and the registry histograms.
func readLayers(base, now counters, runners []string, pl *poller, res *passResult) {
	l := res.layer
	l["realm.ingest_s"] = now.ingestS - base.ingestS
	l["realm.analysis_s"] = now.analysisS - base.analysisS
	l["core.merge_s"] = now.mergeS - base.mergeS
	l["core.merge_count"] = float64(now.mergeN - base.mergeN)
	l["core.shard_fold_s"] = l["realm.ingest_s"] - l["core.merge_s"]
	sealed := 0
	for name, ep := range now.sealed {
		sealed += int(ep - base.sealed[name])
	}
	l["core.windows_sealed"] = float64(sealed)
	l["core.bus_dropped"] = float64(res.drops)
	if pl != nil {
		l["core.bus_depth_max"] = float64(pl.busDepthMax)
		l["realm.sched_depth_max"] = float64(pl.schedDepthMax)
	}
	for _, r := range runners {
		l["runner."+r+".run_s"] = now.runS[r] - base.runS[r]
	}
}

// foldProgramSpans collects the durations (µs) of the program's own
// sampled-record spans — wire.ingest, core.shard, core.merge and
// analysis.<name> — from the daemon's span recorder. Every sampled record
// of one batch (or window) carries a copy of the same span; the copies
// are folded into one, so each batch or window counts once.
func foldProgramSpans(d *daemon) map[string][]float64 {
	type key struct {
		stage string
		start time.Time
		dur   time.Duration
	}
	seen := make(map[key]bool)
	out := make(map[string][]float64)
	rec := d.tr.Recorder()
	for _, id := range rec.TraceIDs() {
		for _, sp := range rec.Trace(id) {
			k := key{sp.Stage, sp.Start, sp.Dur}
			if seen[k] || !(sp.Stage == "wire.ingest" || strings.HasPrefix(sp.Stage, "core.") || strings.HasPrefix(sp.Stage, "analysis.")) {
				continue
			}
			seen[k] = true
			out[sp.Stage] = append(out[sp.Stage], float64(sp.Dur)/float64(time.Microsecond))
		}
	}
	return out
}

// kernelWindows bounds the kernel pass to each tenant's newest sealed
// windows, so a traced run stays well inside its time budget.
const kernelWindows = 24

// kernelPass times each analysis kernel single-threaded over the run's
// newest sealed windows (per tenant, in epoch order, so graph.Diff sees
// consecutive windows) and reports ms per window.
func kernelPass(tenants [][]*graph.Graph, spans *spanLog) map[string]float64 {
	sums := make(map[string]time.Duration)
	windows, nodes, edges := 0, 0, 0
	root, end := spans.begin(0, "kernels")
	defer end()
	timeit := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		sums[name] += t1.Sub(t0)
		spans.add(root, name, t0, t1)
	}
	for _, ws := range tenants {
		var prev *graph.Graph
		for _, g := range ws[max(0, len(ws)-kernelWindows):] {
			windows++
			nodes += g.NumNodes()
			edges += g.NumEdges()
			timeit("summarize.chatty_cliques_ms", func() { summarize.ChattyCliques(g, 3, 0.5, 0.01) })
			timeit("summarize.hubs_ms", func() { summarize.Hubs(g, 0.5) })
			timeit("summarize.ccdf_ms", func() { summarize.CCDF(g, graph.Bytes) })
			if prev != nil {
				timeit("graph.diff_ms", func() { graph.Diff(prev, g) })
			}
			var assign segment.Assignment
			timeit("segment.jaccard_louvain_ms", func() {
				assign, _ = segment.Run(segment.StrategyJaccardLouvain, g, segment.Options{})
			})
			if assign != nil {
				timeit("policy.learn_ms", func() { policy.Learn(g, assign) })
			}
			timeit("counterfactual.plan_ms", func() { counterfactual.PlanCapacity(g, 0, 0.8, 10) })
			prev = g
		}
	}
	out := make(map[string]float64)
	if windows == 0 {
		return out
	}
	for name, d := range sums {
		out[name] = ms(d) / float64(windows)
	}
	out["graph.nodes_per_window"] = float64(nodes) / float64(windows)
	out["graph.edges_per_window"] = float64(edges) / float64(windows)
	return out
}

// histstorePass appends the run's sealed windows, fsynced, into a scratch
// store, then reopens it and replays everything back — the durable
// stage's write and recovery costs in isolation.
func histstorePass(dir string, tenants [][]*graph.Graph, spans *spanLog) (map[string]float64, error) {
	root, end := spans.begin(0, "histstore")
	defer end()
	path := filepath.Join(dir, "histstore-scratch")
	s, err := histstore.Open(path, histstore.Options{Retention: 24 * time.Hour, RollupBucket: time.Hour})
	if err != nil {
		return nil, err
	}
	var appendTime time.Duration
	n := 0
	for _, ws := range tenants {
		for _, g := range ws {
			n++
			t0 := time.Now()
			if err := s.Append(uint64(n), g); err != nil {
				s.Close()
				return nil, err
			}
			t1 := time.Now()
			appendTime += t1.Sub(t0)
			spans.add(root, "histstore.Append", t0, t1)
		}
	}
	bytesOnDisk := s.Stats().Bytes
	if err := s.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	s, err = histstore.Open(path, histstore.Options{Retention: 24 * time.Hour, RollupBucket: time.Hour})
	if err != nil {
		return nil, err
	}
	replayed := 0
	err = s.Replay(func(uint64, *graph.Graph) error { replayed++; return nil })
	replay := time.Since(t0)
	spans.add(root, "histstore.Replay", t0, t0.Add(replay))
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if n > 0 {
		out["histstore.append_ms"] = ms(appendTime) / float64(n)
		out["histstore.bytes_per_window"] = float64(bytesOnDisk) / float64(n)
		out["histstore.replay_windows_per_s"] = float64(replayed) / replay.Seconds()
	}
	return out, nil
}

// decodePass times flowlog.Reader.ReadBatch over plain wire frames of the
// run's records, in the server's 4096-record batches.
func decodePass(frames []byte, records int) float64 {
	rd := flowlog.NewReader(bytes.NewReader(frames))
	buf := make([]flowlog.Record, 4096)
	n := 0
	start := time.Now()
	for {
		k, err := rd.ReadBatch(buf)
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0
		}
	}
	d := time.Since(start)
	if n != records || n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
