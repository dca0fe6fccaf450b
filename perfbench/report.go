package main

import (
	"fmt"
	"sort"
	"strings"

	"cloudgraph/internal/flowlog"
)

// usable drops passes flagged by the open-loop checks: they are reported
// and counted as failed, not averaged in. The run fails when none is left.
func usable(passes []*passResult) []*passResult {
	var ok []*passResult
	for _, p := range passes {
		if len(p.flags) == 0 {
			ok = append(ok, p)
		}
	}
	return ok
}

func perPass(passes []*passResult, f func(*passResult) float64) float64 {
	xs := make([]float64, 0, len(passes))
	for _, p := range passes {
		xs = append(xs, f(p))
	}
	return median(xs)
}

func pooled(passes []*passResult, f func(*passResult) []float64) []float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, f(p)...)
	}
	return xs
}

// endToEnd is the --trace 0 metric set: medians over the usable passes,
// and over every set-up sample for setup_s.
func endToEnd(passes []*passResult, setups []float64) []metric {
	ps := usable(passes)
	return []metric{
		{"ack_rps", perPass(ps, func(p *passResult) float64 { return float64(p.records) / p.ack.Seconds() }), "rec/s"},
		{"queryable_rps", perPass(ps, func(p *passResult) float64 { return float64(p.records) / p.queryable.Seconds() }), "rec/s"},
		{"cpu_us_per_rec", perPass(ps, func(p *passResult) float64 { return p.cpu.Seconds() * 1e6 / float64(p.records) }), "us"},
		{"retained_heap_mb", perPass(ps, func(p *passResult) float64 { return p.heapMB }), "MB"},
		{"setup_s", median(setups), "s"},
	}
}

func printEndToEnd(w *workload, passes []*passResult, e2e []metric, attempted, failed int) {
	for i, p := range passes {
		fmt.Printf("pass %d: %d records, ack %.0f rec/s, queryable %.0f rec/s, cpu %.3f us/rec, heap %.2f MB, setup %.4f s\n",
			i, p.records, float64(p.records)/p.ack.Seconds(), float64(p.records)/p.queryable.Seconds(),
			p.cpu.Seconds()*1e6/float64(p.records), p.heapMB, p.setup.Seconds())
	}
	fmt.Printf("\nend-to-end (%s, %d untraced pass(es), medians):\n", w.name, len(passes))
	for _, m := range e2e {
		fmt.Printf("  %-26s %14.4f %s\n", m.name, m.value, m.unit)
	}
	ps := usable(passes)
	if w.openLoop {
		lat := func(name string, xs []float64) {
			fmt.Printf("  %-26s %14.4f ms   (%s_p90_ms %.4f ms, n=%d)\n", name+"_p50_ms", quantile(xs, 0.5), name, quantile(xs, 0.9), len(xs))
		}
		lat("seal_to_queryable", pooled(ps, func(p *passResult) []float64 { return p.lat.queryable }))
		lat("seal_to_durable", pooled(ps, func(p *passResult) []float64 { return p.lat.durable }))
		lat("query", pooled(ps, func(p *passResult) []float64 { return p.queryLat }))
		late := pooled(ps, func(p *passResult) []float64 { return p.lateness })
		fmt.Printf("  generator lateness         p90 %.3f ms, max %.3f ms (n=%d batches)\n", quantile(late, 0.9), maxOf(late), len(late))
		for i, p := range passes {
			fmt.Printf("  pass %d backlog: %d windows mid-run, %d at end of sending\n", i, p.lagMid, p.lagEnd)
			for _, f := range p.flags {
				fmt.Printf("  pass %d FLAGGED (not averaged in): %s\n", i, f)
			}
		}
	}
	var errs, drops, jumped, missed, mism int
	for _, p := range passes {
		errs += p.errs
		drops += p.drops
		jumped += p.jumped
		missed += p.missed
		mism += p.mismatches
	}
	fmt.Printf("  %-26s %14.6f ratio (%d failed / %d attempted, all passes: ERR %d, bus drops %d, watermark.epochs_jumped %d, missed QUERY epochs %d, mismatches %d)\n",
		"failed_share", float64(failed)/float64(max(attempted, 1)), failed, attempted, errs, drops, jumped, missed, mism)
}

// layerRow is one per-layer metric: its module, unit, the end-to-end
// metric it should move, and whether it is defined on every workload
// (only those go into the JSON result, which must name the same metrics
// on every workload).
type layerRow struct {
	module, name, unit, moves string
	universal                 bool
}

var layerRows = []layerRow{
	{"analytics", "analytics.ingest_rtt_p50_ms", "ms", "ack_rps on ingest-only", true},
	{"analytics", "analytics.ingest_rtt_p90_ms", "ms", "ack_rps on ingest-only", true},
	{"flowlog", "flowlog.decode_ns_per_rec", "ns", "ack_rps on ingest-only", true},
	{"realm", "realm.ingest_s", "s", "ack_rps", true},
	{"realm", "realm.analysis_s", "s", "cpu_us_per_rec, seal_to_queryable_p50_ms on tenants-durable", false},
	{"realm", "realm.sched_depth_max", "count", "seal_to_queryable_p90_ms on tenants-durable", false},
	{"core", "core.merge_s", "s", "ack_rps on ingest-only", true},
	{"core", "core.merge_count", "count", "ack_rps on ingest-only", true},
	{"core", "core.shard_fold_s", "s", "ack_rps on ingest-only", true},
	{"core", "core.windows_sealed", "count", "-", true},
	{"core", "core.bus_dropped", "count", "failed_share", false},
	{"core", "core.bus_depth_max", "count", "seal_to_queryable_p90_ms on tenants-durable", false},
	{"timeline", "timeline.seal_to_published_p50_ms", "ms", "seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.segment.run_s", "s", "cpu_us_per_rec, seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.summarize.run_s", "s", "cpu_us_per_rec, seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.counterfactual.run_s", "s", "cpu_us_per_rec, seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.policy.run_s", "s", "cpu_us_per_rec, seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.segment.seal_to_analyzed_p50_ms", "ms", "seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.summarize.seal_to_analyzed_p50_ms", "ms", "seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.counterfactual.seal_to_analyzed_p50_ms", "ms", "seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.policy.seal_to_analyzed_p50_ms", "ms", "seal_to_queryable_p50_ms on tenants-durable", false},
	{"runner", "runner.batch_replay_s", "s", "single-threaded baseline", false},
	{"kernels", "summarize.chatty_cliques_ms", "ms", kernelMoves, true},
	{"kernels", "summarize.hubs_ms", "ms", kernelMoves, true},
	{"kernels", "summarize.ccdf_ms", "ms", kernelMoves, true},
	{"kernels", "graph.diff_ms", "ms", kernelMoves, true},
	{"kernels", "segment.jaccard_louvain_ms", "ms", kernelMoves, true},
	{"kernels", "policy.learn_ms", "ms", kernelMoves, true},
	{"kernels", "counterfactual.plan_ms", "ms", kernelMoves, true},
	{"kernels", "graph.nodes_per_window", "count", "-", true},
	{"kernels", "graph.edges_per_window", "count", "-", true},
	{"histstore", "histstore.append_ms", "ms", "seal_to_durable_p50/p90_ms on tenants-durable", true},
	{"histstore", "histstore.replay_windows_per_s", "1/s", "setup_s on tenants-durable", true},
	{"histstore", "histstore.bytes_per_window", "B", "-", true},
	{"go", "go.alloc_bytes_per_rec", "B", "cpu_us_per_rec", true},
	{"go", "go.gc_cycles", "count", "cpu_us_per_rec", true},
}

const kernelMoves = "seal_to_queryable_*, cpu_us_per_rec, setup_s on tenants-durable; none on ingest-only"

// layers is a traced run's per-layer figures.
type layers struct {
	values map[string]float64
	json   []metric
}

// perLayer computes the per-layer table from the traced passes plus the
// single-threaded kernel, histstore and decode passes over the run's own
// windows and bytes.
func (e *env) perLayer(traced []*passResult) (layers, error) {
	v := make(map[string]float64)
	rtts := pooled(traced, func(p *passResult) []float64 { return p.rtts })
	v["analytics.ingest_rtt_p50_ms"] = quantile(rtts, 0.5)
	v["analytics.ingest_rtt_p90_ms"] = quantile(rtts, 0.9)
	for _, row := range layerRows {
		name := row.name
		if _, ok := traced[0].layer[name]; ok {
			v[name] = perPass(traced, func(p *passResult) float64 { return p.layer[name] })
		}
	}
	v["go.alloc_bytes_per_rec"] = perPass(traced, func(p *passResult) float64 { return float64(p.allocBytes) / float64(p.records) })
	v["go.gc_cycles"] = perPass(traced, func(p *passResult) float64 { return float64(p.gcCycles) })
	if e.w.openLoop {
		v["timeline.seal_to_published_p50_ms"] = median(pooled(traced, func(p *passResult) []float64 { return p.lat.published }))
		for _, r := range []string{"segment", "summarize", "counterfactual", "policy"} {
			v["runner."+r+".seal_to_analyzed_p50_ms"] = median(pooled(traced, func(p *passResult) []float64 { return p.lat.analyzed[r] }))
		}
	}
	if e.ref != nil {
		v["runner.batch_replay_s"] = e.ref.replay.Seconds()
	}

	frames, n := e.in.live.frames, e.in.live.records
	if e.in.live.tagged {
		frames = nil
		for _, td := range e.in.tenants {
			for _, r := range td.live {
				frames = flowlog.AppendBinary(frames, r)
			}
		}
	}
	v["flowlog.decode_ns_per_rec"] = decodePass(frames, n)

	windows := traced[len(traced)-1].windows
	for k, x := range kernelPass(windows, e.spans) {
		v[k] = x
	}
	hs, err := histstorePass(e.work, windows, e.spans)
	if err != nil {
		return layers{}, fmt.Errorf("histstore pass: %w", err)
	}
	for k, x := range hs {
		v[k] = x
	}
	out := layers{values: v}
	for _, row := range layerRows {
		if row.universal {
			out.json = append(out.json, metric{row.name, v[row.name], row.unit})
		}
	}
	return out, nil
}

func printLayers(w *workload, l layers, plain, traced []*passResult, setups []float64) {
	sampling := traceSampleEvery
	if w.tenants > 1 {
		sampling = taggedSampleEvery
	}
	fmt.Printf("\nper-layer attribution (%s, traced run: %d pass(es), record sampling 1/%d):\n", w.name, len(traced), sampling)
	fmt.Printf("  %-10s %-44s %14s %-6s  should move\n", "module", "metric", "value", "unit")
	for _, row := range layerRows {
		x, ok := l.values[row.name]
		val := "n/a"
		if ok {
			val = fmt.Sprintf("%14.4f", x)
		}
		fmt.Printf("  %-10s %-44s %14s %-6s  %s\n", row.module, row.name, val, row.unit, row.moves)
	}
	spans := make(map[string][]float64)
	for _, p := range traced {
		for k, xs := range p.spanStats {
			spans[k] = append(spans[k], xs...)
		}
	}
	names := make([]string, 0, len(spans))
	for k := range spans {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("  program spans (one per batch or window; median µs, n):\n")
	for _, k := range names {
		fmt.Printf("    %-30s %12.1f  n=%d\n", k, median(spans[k]), len(spans[k]))
	}
	if v, ok := l.values["realm.analysis_s"]; ok && v > 0 {
		fmt.Printf("  runner.summarize.run_s / realm.analysis_s = %.2f\n", l.values["runner.summarize.run_s"]/v)
	}
	if w.openLoop {
		// Residual: the part of seal→queryable that neither the slowest
		// runner's median run time nor seal→published explains — queueing
		// behind the scheduler and the bus, and cross-runner skew.
		q := median(pooled(usable(traced), func(p *passResult) []float64 { return p.lat.queryable }))
		slowest, who := 0.0, ""
		for _, k := range names {
			if strings.HasPrefix(k, "analysis.") {
				if m := median(spans[k]) / 1000; m > slowest {
					slowest, who = m, k
				}
			}
		}
		pub := l.values["timeline.seal_to_published_p50_ms"]
		fmt.Printf("  residual: seal_to_queryable_p50_ms %.3f - slowest runner median run %.3f (%s) - timeline.seal_to_published_p50_ms %.3f = %.3f ms\n",
			q, slowest, who, pub, q-slowest-pub)
	}
	base := endToEnd(plain, setups)
	tr := endToEnd(traced, pooled(traced, func(p *passResult) []float64 { return []float64{p.setup.Seconds()} }))
	fmt.Printf("  tracing overhead (traced median / untraced median - 1):\n")
	for i := range base {
		fmt.Printf("    %-24s %+7.1f%%  (%.4f vs %.4f %s)\n", base[i].name, 100*(tr[i].value/base[i].value-1), tr[i].value, base[i].value, base[i].unit)
	}
}
