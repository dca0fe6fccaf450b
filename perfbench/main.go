// Command perfbench is cloudgraph's end-to-end benchmark. It starts the
// multi-tenant daemon in-process — realm.NewManager plus
// analytics.ServeRealms with cloudgraphd's defaults, 1-minute windows and
// four ingest shards — and drives it over real TCP with pre-encoded wire
// frames generated from a cluster preset under --seed. Every pass checks
// the daemon's outputs against a single-threaded reference replay, and
// every layer is measured from outside: the benchmark times its own calls
// into public functions and reads what the program already exposes
// (registry histograms, realm COGS meters, bus and scheduler stats,
// watermark snapshots).
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload tenants-durable --seed 1 --seconds 30 --trace 0
//
// The report goes to stdout; its last line is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The exit code is non-zero when the correctness gate fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest-only or tenants-durable")
		seed    = flag.Int64("seed", 1, "input seed (added to the cluster preset's seed)")
		seconds = flag.Int("seconds", 30, "timed seconds: whole passes repeat until this much set-up plus pass time is measured")
		traced  = flag.Int("trace", 0, "1 = traced run: also run traced passes and report per-layer metrics")
	)
	flag.Parse()
	w := lookupWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload ingest-only|tenants-durable, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	os.Exit(run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1))
}

func run(w *workload, seed int64, seconds time.Duration, traced bool) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	work := filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	e := &env{w: w, work: work, traced: traced}
	printProvenance(w, seed, seconds)

	// A traced run reports its traced passes; one untraced pass before
	// them is the baseline of the tracing-overhead ratio.
	plainSeconds := seconds
	if traced {
		plainSeconds = onePass
	}
	plain, err := e.runPasses(false, plainSeconds, seed)
	if err != nil {
		return fail(err)
	}
	var tracedPasses []*passResult
	if traced {
		// Spans only in the traced passes: the untraced one is the
		// shipped configuration the tracing overhead is measured against.
		e.spans = &spanLog{}
		if tracedPasses, err = e.runPasses(true, seconds, seed); err != nil {
			return fail(err)
		}
	}
	all := append(append([]*passResult(nil), plain...), tracedPasses...)
	setups := make([]float64, 0, w.setups)
	for _, p := range plain {
		setups = append(setups, p.setup.Seconds())
	}
	// Set-up-only samples fill setup_s up to w.setups samples. A traced
	// run does not report setup_s, so its one untraced pass's set-up is
	// the overhead baseline.
	for i := 0; !traced && len(setups) < w.setups; i++ {
		d, err := e.setupSample(i)
		if err != nil {
			return fail(fmt.Errorf("set-up sample: %w", err))
		}
		setups = append(setups, d.Seconds())
	}

	attempted, failed := 0, 0
	var gateErrs []string
	for _, p := range all {
		attempted += p.attempted()
		failed += p.failed()
		gateErrs = append(gateErrs, p.gateErrs...)
	}
	if len(usable(plain)) == 0 || (traced && len(usable(tracedPasses)) == 0) {
		gateErrs = append(gateErrs, "every pass was flagged by the open-loop checks: the daemon did not sustain the offered rate")
	}
	correct := len(gateErrs) == 0

	e2e := endToEnd(plain, setups)
	printEndToEnd(w, plain, e2e, attempted, failed)
	var metrics []metric
	if traced {
		layers, err := e.perLayer(tracedPasses)
		if err != nil {
			return fail(err)
		}
		printLayers(w, layers, plain, tracedPasses, setups)
		path, err := e.spans.write(filepath.Join(".bench_build", "spans"), fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err != nil {
			return fail(err)
		}
		fmt.Printf("benchmark spans (%d) written to %s\n", len(e.spans.spans), path)
		e.spans.report(os.Stdout)
		metrics = layers.json
	} else {
		metrics = e2e
	}

	if !correct {
		fmt.Printf("CORRECTNESS GATE FAILED (%d findings):\n", len(gateErrs))
		for i, g := range gateErrs {
			if i == 20 {
				fmt.Printf("  ... %d more\n", len(gateErrs)-20)
				break
			}
			fmt.Println("  " + g)
		}
	}
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}
	for _, m := range metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

// onePass makes runPasses stop after its first pass.
const onePass = time.Nanosecond

// runPasses repeats whole passes until seconds of timed work have been
// measured: each pass's set-up (daemon start, with recovery on
// tenants-durable) plus its first INGEST to queryable. Inputs are prepared
// before the first pass.
func (e *env) runPasses(traced bool, seconds time.Duration, seed int64) ([]*passResult, error) {
	var out []*passResult
	var measured time.Duration
	for i := 0; measured < seconds; i++ {
		idx := i
		if traced {
			idx += 1000
		}
		if e.in == nil {
			if err := e.prepare(seed); err != nil {
				return nil, err
			}
		}
		p, err := e.runPass(idx, traced)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", idx, err)
		}
		measured += p.setup + p.queryable
		out = append(out, p)
	}
	return out, nil
}

// prepare generates the inputs for seed and everything derived from them,
// outside every timed region: the recovered history and the reference
// replay of the correctness gate.
func (e *env) prepare(seed int64) error {
	t0 := time.Now()
	in, err := generate(e.w, seed, e.traced)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	e.in = in
	fmt.Printf("inputs (seed %d): %d live records in %d batches, %.1f MB of frames, generated in %.1fs\n",
		seed, in.live.records, len(in.live.batches), float64(len(in.live.frames))/(1<<20), time.Since(t0).Seconds())
	if e.w.durable {
		t0 := time.Now()
		if err := e.writeHistory(); err != nil {
			return fmt.Errorf("writing history: %w", err)
		}
		fmt.Printf("history: %d records over %dh written to the data directory in %.1fs\n",
			in.history.records, e.w.historyHours, time.Since(t0).Seconds())
	}
	if e.w.live {
		ref, err := buildReference(in)
		if err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
		e.ref = ref
		fmt.Printf("reference: single-threaded runner.Plane.Replay in %.2fs\n", ref.replay.Seconds())
	}
	if e.w.openLoop {
		fmt.Printf("reads: QUERY every %v (one per tenant per window of stream time at %.0f rec/s)\n", e.queryEvery(), e.w.rate)
	}
	return nil
}

// writeHistory builds the data directory every tenants-durable pass
// recovers: a daemon with the live plane off takes the history hours over
// the wire and appends their windows, fsynced, to per-tenant segment
// stores. Each pass copies the directory, so every pass recovers the
// same history.
func (e *env) writeHistory() error {
	e.pristine = filepath.Join(e.work, "history")
	if err := os.RemoveAll(e.pristine); err != nil {
		return err
	}
	d, err := startDaemon(daemonConfig{dataDir: e.pristine})
	if err != nil {
		return err
	}
	return errors.Join(e.sendHistory(d), d.stop())
}

func (e *env) sendHistory(d *daemon) error {
	c, err := dial(d.srv.Addr())
	if err != nil {
		return err
	}
	s := &e.in.history
	for _, b := range s.batches {
		if err := c.writeIngest(s, b); err != nil {
			return errors.Join(err, c.close())
		}
		if err := c.readOK(b.n); err != nil {
			return errors.Join(err, c.close())
		}
	}
	for _, td := range e.in.tenants {
		if err := c.flushTenant(td.name); err != nil {
			return errors.Join(err, c.close())
		}
	}
	return c.close()
}

func printProvenance(w *workload, seed int64, seconds time.Duration) {
	loop := "closed loop, 1 connection"
	if w.openLoop {
		loop = fmt.Sprintf("open loop at %.0f rec/s on 1 connection, QUERY <runner> latest on a second", w.rate)
	}
	fmt.Printf("workload %s: %s@%g seed %d, %d tenant(s), %d min live + %dh recovered history per pass, live plane %v, data dir %v, %s, %d-record batches, >= %v of passes\n",
		w.name, w.preset, w.scale, seed, w.tenants, w.liveMinutes, w.historyHours, w.live, w.durable, loop, sendBatch, seconds)
	fmt.Printf("why: %s\n", w.why)
}
