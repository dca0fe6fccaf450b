package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
)

// traceSampleEvery is the daemon's record sampling rate in traced passes
// (trace.Options.SampleEvery). Tagged frames carry client-side contexts
// instead, sampled one in taggedSampleEvery: dense enough that nearly
// every tenant-window of the smallest zipf tenant holds a sampled record,
// so the per-window analysis spans cover the same windows as the
// seal-to-queryable samples they are compared with.
const (
	traceSampleEvery  = 1024
	taggedSampleEvery = 64
)

// env is what every pass of one run shares.
type env struct {
	w        *workload
	in       *inputs
	work     string // scratch directory inside the checkout
	pristine string // recovered history, copied into each pass
	ref      *reference
	spans    *spanLog
	// traced marks a traced run: tagged inputs are then also encoded
	// with client-side trace contexts.
	traced bool
}

// passResult is one pass: one daemon start, the whole live stream, FLUSH,
// and the correctness gate.
type passResult struct {
	setup   time.Duration
	records int
	// ack is first INGEST sent → last OK; queryable is first INGEST sent
	// → every tenant's analyzed.* watermarks cover its final epoch after
	// FLUSH.
	ack, queryable time.Duration
	cpu            time.Duration
	heapMB         float64
	allocBytes     uint64
	gcCycles       uint64

	// Operations attempted and failed.
	batches, windowRuns, queries, gateQueries          int
	errs, queryErrs, drops, jumped, missed, mismatches int
	gateErrs                                           []string

	rtts     []float64 // INGEST send → OK, ms
	lat      latencies
	queryLat []float64 // QUERY due → answer, ms
	lateness []float64 // batch due → write start, ms
	lagMid   int
	lagEnd   int
	// openLoop marks a pass that made the open-loop checks; flags are the
	// checks it failed. A flagged pass counts as one failed operation and
	// is left out of the medians.
	openLoop bool
	flags    []string

	layer     map[string]float64
	windows   [][]*graph.Graph     // per tenant, retained sealed windows (traced passes)
	spanStats map[string][]float64 // program span durations by stage, µs
}

func (p *passResult) attempted() int {
	n := p.batches + p.windowRuns + p.queries + p.gateQueries
	if p.openLoop {
		n++
	}
	return n
}

func (p *passResult) failed() int {
	n := p.errs + p.queryErrs + p.drops + p.jumped + p.missed + p.mismatches
	if len(p.flags) > 0 {
		n++
	}
	return n
}

// counters is a snapshot of the daemon's cumulative counters, so a pass
// reports only its own work (recovery runs the runners too).
type counters struct {
	ingestS, analysisS float64
	mergeS             float64
	mergeN             uint64
	shardRecords       int64
	runS               map[string]float64
	records            map[string]int64
	sealed             map[string]uint64
}

func readCounters(d *daemon, runners []string) counters {
	c := counters{runS: make(map[string]float64), records: make(map[string]int64), sealed: make(map[string]uint64)}
	for _, r := range d.m.Realms() {
		cost := r.Cost()
		c.ingestS += cost.IngestSeconds
		c.analysisS += cost.AnalysisSeconds
		c.records[r.Name()] = cost.Records
		c.sealed[r.Name()] = r.Watermarks().SealedEpoch()
	}
	c.mergeS, c.mergeN = d.histSum("cloudgraph_core_window_merge_seconds")
	for i := range ingestShards {
		c.shardRecords += d.reg.Counter("cloudgraph_core_shard_records_total", "",
			telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}).Value()
	}
	for _, name := range runners {
		c.runS[name], _ = d.histSum("cloudgraph_analysis_run_seconds", telemetry.Label{Key: "analysis", Value: name})
	}
	return c
}

// runnerNames is the analysis plane's runner set (empty with -live=false).
func runnerNames(d *daemon) []string {
	if p := d.m.Default().Plane(); p != nil {
		return p.Runners()
	}
	return nil
}

func heapLive() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads cumulative heap allocation bytes and GC cycles.
func runtimeCounters() (allocs, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		cycles = s[1].Value.Uint64()
	}
	return allocs, cycles
}

// dataDir gives a pass or a set-up sample its own copy of the pristine
// history when the workload is durable ("" otherwise).
func (e *env) dataDir(name string) (string, error) {
	if !e.w.durable {
		return "", nil
	}
	dir := filepath.Join(e.work, name)
	return dir, copyDir(e.pristine, dir)
}

// daemonStart brings up a daemon over dataDir. The returned cleanup stops
// the daemon and removes the directory.
func (e *env) daemonStart(dataDir string, sampleEvery int) (*daemon, func() error, error) {
	d, err := startDaemon(daemonConfig{live: e.w.live, dataDir: dataDir, sampleEvery: sampleEvery})
	if err != nil {
		return nil, nil, errors.Join(err, os.RemoveAll(dataDir))
	}
	return d, func() error {
		err := d.stop()
		if dataDir != "" {
			if rerr := os.RemoveAll(dataDir); err == nil {
				err = rerr
			}
		}
		return err
	}, nil
}

// setupSample is a set-up-only cycle: daemon start (with recovery) until
// the first INGEST batch is accepted, then shutdown.
func (e *env) setupSample(i int) (time.Duration, error) {
	dir, err := e.dataDir("setup-" + strconv.Itoa(i))
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	d, cleanup, err := e.daemonStart(dir, 0)
	if err != nil {
		return 0, err
	}
	c, err := dial(d.srv.Addr())
	if err != nil {
		return 0, errors.Join(err, cleanup())
	}
	b := e.in.live.batches[0]
	if err = c.writeIngest(&e.in.live, b); err == nil {
		err = c.readOK(b.n)
	}
	setup := time.Since(start)
	return setup, errors.Join(err, c.close(), cleanup())
}

// runPass runs one pass.
func (e *env) runPass(idx int, traced bool) (*passResult, error) {
	w := e.w
	res := &passResult{layer: make(map[string]float64)}
	sample := 0
	s := &e.in.live
	if traced {
		sample = traceSampleEvery
		if e.in.traced.records > 0 {
			s = &e.in.traced
		}
	}
	passSpan, endPass := e.spans.begin(0, "pass")
	defer endPass()

	dir, err := e.dataDir("pass-" + strconv.Itoa(idx))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	heapBase := heapLive()
	setupStart := time.Now()
	_, endSetup := e.spans.begin(passSpan, "daemon.start")
	d, cleanup, err := e.daemonStart(dir, sample)
	endSetup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := cleanup(); cerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown: %v\n", cerr)
		}
	}()
	c, err := dial(d.srv.Addr())
	if err != nil {
		return nil, err
	}
	defer c.close()
	runners := runnerNames(d)
	base := readCounters(d, runners)
	// The poller takes the scheduler and bus locks every millisecond, so
	// it runs only where its output is used: the open-loop watermark
	// latencies and backlog checks, and the depth maxima of traced passes.
	var pl *poller
	if w.openLoop || traced {
		pl = startPoller(d.m, w.openLoop)
	}
	cpu0 := cpuTime()
	alloc0, gc0 := runtimeCounters()

	var sent sendResult
	if w.openLoop {
		sent, err = e.sendOpen(c, d.srv.Addr(), runners, s, pl, res, passSpan)
	} else {
		sent, err = e.sendClosed(c, s, res, passSpan)
	}
	if err != nil {
		pl.finish()
		return nil, err
	}
	res.setup = sent.firstOK.Sub(setupStart)
	res.records = s.records
	res.ack = sent.lastOK.Sub(sent.first)

	_, endFlush := e.spans.begin(passSpan, "FLUSH")
	for _, td := range e.in.tenants {
		if w.tenants == 1 {
			_, err = c.command("FLUSH")
		} else {
			err = c.flushTenant(td.name)
		}
		if err != nil {
			endFlush()
			pl.finish()
			return nil, fmt.Errorf("FLUSH %s: %w", td.name, err)
		}
	}
	endFlush()
	for _, r := range d.m.Realms() {
		snap := r.Watermarks().Snapshot()
		for _, st := range snap.Stages {
			if strings.HasPrefix(st.Name, "analyzed.") && st.Epoch < snap.Sealed {
				res.gateErrs = append(res.gateErrs, fmt.Sprintf("%s %s at epoch %d after FLUSH, sealed %d", r.Name(), st.Name, st.Epoch, snap.Sealed))
			}
		}
	}
	res.queryable = time.Since(sent.first)
	res.cpu = cpuTime() - cpu0
	alloc1, gc1 := runtimeCounters()
	res.allocBytes, res.gcCycles = alloc1-alloc0, gc1-gc0
	pl.finish()

	runtime.GC()
	res.heapMB = (float64(heapLive()) - float64(heapBase)) / (1 << 20)

	if pl != nil {
		res.jumped = pl.jumped
		res.lat = pl.latencies()
	}
	now := readCounters(d, runners)
	e.countGate(base, now, res)
	for _, r := range d.m.Realms() {
		for _, st := range r.Engine().Bus().Stats() {
			res.drops += int(st.Dropped)
		}
		res.windowRuns += int(now.sealed[r.Name()]-base.sealed[r.Name()]) * len(runners)
	}
	if e.ref != nil {
		_, endGate := e.spans.begin(passSpan, "gate.query")
		err := e.queryGate(c, res)
		endGate()
		if err != nil {
			return nil, err
		}
	}
	readLayers(base, now, runners, pl, res)
	if traced {
		for _, r := range d.m.Realms() {
			if ws := r.Engine().Windows(); len(ws) > 0 {
				res.windows = append(res.windows, ws)
			}
		}
		res.spanStats = foldProgramSpans(d)
	}
	return res, nil
}

// countGate checks that every tenant folded exactly the records sent to
// it and sealed one window per minute of its stream.
func (e *env) countGate(base, now counters, res *passResult) {
	total := 0
	for _, td := range e.in.tenants {
		name := td.name
		if e.w.tenants == 1 {
			name = realm.DefaultTenant
		}
		total += td.liveCount
		if got := now.records[name] - base.records[name]; got != int64(td.liveCount) {
			res.gateErrs = append(res.gateErrs, fmt.Sprintf("%s folded %d records, sent %d", name, got, td.liveCount))
		}
		if got := now.sealed[name] - base.sealed[name]; got != uint64(td.liveWindows) {
			res.gateErrs = append(res.gateErrs, fmt.Sprintf("%s sealed %d windows, stream spans %d", name, got, td.liveWindows))
		}
	}
	if got := now.shardRecords - base.shardRecords; got != int64(total) {
		res.gateErrs = append(res.gateErrs, fmt.Sprintf("shards folded %d records, sent %d", got, total))
	}
	if res.errs > 0 {
		res.gateErrs = append(res.gateErrs, fmt.Sprintf("%d INGEST batches answered ERR", res.errs))
	}
}

// sendResult is the timing of the whole send phase.
type sendResult struct {
	first, firstOK, lastOK time.Time
}

// sendClosed sends every batch on one connection, each after the previous
// one is acknowledged.
func (e *env) sendClosed(c *client, s *stream, res *passResult, parent int) (sendResult, error) {
	var out sendResult
	sendSpan, endSend := e.spans.begin(parent, "send.closed")
	defer endSend()
	for i, b := range s.batches {
		t0 := time.Now()
		if err := c.writeIngest(s, b); err != nil {
			return out, err
		}
		err := c.readOK(b.n)
		t1 := time.Now()
		var er *errResponse
		switch {
		case errors.As(err, &er):
			res.errs++
		case err != nil:
			return out, err
		}
		if i == 0 {
			out.first, out.firstOK = t0, t1
		}
		out.lastOK = t1
		res.batches++
		res.rtts = append(res.rtts, ms(t1.Sub(t0)))
		e.spans.add(sendSpan, "INGEST", t0, t1)
	}
	return out, nil
}

// sendOpen sends batches on a fixed schedule — batch i is due when the
// records before it, at the workload's rate, have been sent — whatever
// the daemon's answers do; a second connection issues QUERYs on its own
// schedule. The generator's lateness and the backlog are checked, and a
// pass failing either is flagged.
func (e *env) sendOpen(c *client, addr string, runners []string, s *stream, pl *poller, res *passResult, parent int) (sendResult, error) {
	var out sendResult
	sendSpan, endSend := e.spans.begin(parent, "send.open")
	defer endSend()
	rate := e.w.rate
	start := time.Now()
	out.first = start

	stopQueries := make(chan struct{})
	qdone := make(chan queryLoopResult, 1)
	go func() { qdone <- e.queryLoop(addr, runners, start, stopQueries, sendSpan) }()

	type sendMark struct {
		at  time.Time
		err error
	}
	marks := make(chan sendMark, len(s.batches)) // one per batch: the sender never blocks on the reader
	lagMid := make(chan int, 1)
	go func() {
		defer close(marks)
		cum := 0
		for i, b := range s.batches {
			due := start.Add(time.Duration(float64(cum) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			at := time.Now()
			res.lateness = append(res.lateness, ms(at.Sub(due)))
			if i == len(s.batches)/2 {
				lagMid <- pl.lag()
			}
			err := c.writeIngest(s, b)
			marks <- sendMark{at: at, err: err}
			if err != nil {
				return
			}
			cum += b.n
		}
	}()
	var sendErr error
	for i, b := range s.batches {
		mk, ok := <-marks
		if !ok || mk.err != nil {
			if ok {
				sendErr = mk.err
			}
			break
		}
		err := c.readOK(b.n)
		now := time.Now()
		var er *errResponse
		switch {
		case errors.As(err, &er):
			res.errs++
		case err != nil:
			sendErr = err
		}
		if sendErr != nil {
			break
		}
		if i == 0 {
			out.firstOK = now
		}
		out.lastOK = now
		res.batches++
		res.rtts = append(res.rtts, ms(now.Sub(mk.at)))
		e.spans.add(sendSpan, "INGEST", mk.at, now)
	}
	if sendErr != nil {
		// Unblock a sender stuck writing to a daemon that stopped reading.
		_ = c.conn.SetDeadline(time.Now())
	}
	for range marks {
	}
	res.lagEnd = pl.lag()
	close(stopQueries)
	q := <-qdone
	if sendErr != nil {
		return out, sendErr
	}
	if q.err != nil {
		return out, fmt.Errorf("query connection: %w", q.err)
	}
	select {
	case res.lagMid = <-lagMid:
	default:
	}
	res.queryLat, res.queries, res.queryErrs = q.lat, q.n, q.errs

	res.openLoop = true
	interval := ms(time.Duration(sendBatch / rate * float64(time.Second)))
	if p90 := quantile(res.lateness, 0.9); p90 > interval {
		res.flags = append(res.flags, fmt.Sprintf("generator late: p90 %.2f ms > batch interval %.2f ms", p90, interval))
	}
	if res.lagEnd > res.lagMid+e.w.tenants {
		res.flags = append(res.flags, fmt.Sprintf("backlog grew: lag %d windows mid-run, %d at end of sending", res.lagMid, res.lagEnd))
	}
	return out, nil
}

type queryLoopResult struct {
	lat  []float64
	n    int
	errs int
	err  error
}

// queryEvery is the read connection's QUERY period: one QUERY per tenant
// per window of stream time at the offered rate — a reader that follows
// each tenant's newest analysis as often as it can change.
func (e *env) queryEvery() time.Duration {
	window := float64(e.in.live.records) / e.w.rate / float64(e.w.liveMinutes)
	return time.Duration(window / float64(e.w.tenants) * float64(time.Second))
}

// queryLoop sends "QUERY <runner> latest" on its own connection every
// queryEvery, rotating over tenants and runners, and times each answer
// from the moment the query was due.
func (e *env) queryLoop(addr string, runners []string, start time.Time, stop <-chan struct{}, parent int) queryLoopResult {
	var out queryLoopResult
	qc, err := dial(addr)
	if err != nil {
		out.err = err
		return out
	}
	defer qc.close()
	every := e.queryEvery()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return out
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		td := e.in.tenants[i%len(e.in.tenants)]
		runner := runners[(i/len(e.in.tenants))%len(runners)]
		t0 := time.Now()
		_, err := qc.command("TENANT " + td.name)
		if err == nil {
			_, err = qc.query(runner, "latest")
		}
		now := time.Now()
		out.n++
		var er *errResponse
		switch {
		case errors.As(err, &er):
			out.errs++
			continue
		case err != nil:
			out.err = err
			return out
		}
		out.lat = append(out.lat, ms(now.Sub(due)))
		e.spans.add(parent, "QUERY", t0, now)
	}
}

// copyDir copies a history directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
