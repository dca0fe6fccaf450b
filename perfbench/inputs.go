package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"cloudgraph/internal/analytics"
	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/nicsim"
	"cloudgraph/internal/trace"
)

// epochStart anchors every generated stream on an hour boundary, so a
// 1-minute window never straddles the history/live split.
var epochStart = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

// batchRef locates one pre-encoded INGEST batch inside a frame buffer.
type batchRef struct{ off, end, n int }

// stream is a pre-encoded sequence of INGEST batches: the only thing the
// daemon ever sees.
type stream struct {
	frames  []byte
	batches []batchRef
	records int
	tagged  bool
}

// tenantData is one tenant's generated records, kept for the reference
// replay of the correctness gate. history is what the daemon recovers
// from disk at start-up; live is what the pass sends.
type tenantData struct {
	name    string
	history []flowlog.Record
	live    []flowlog.Record
	// liveCount and liveWindows are known even when the records
	// themselves are not kept (ingest-only streams straight to frames).
	liveCount   int
	liveWindows int
}

// inputs is everything a workload's passes reuse: generated once per run
// from the seed, outside every timed region.
type inputs struct {
	tenants []*tenantData
	live    stream
	history stream // empty unless the workload recovers history
	// traced is the live stream re-encoded with client-side sampled
	// trace contexts (tagged workloads only; untagged batches are
	// sampled by the daemon itself).
	traced stream
}

// tenantName is flowgen's tenant naming scheme.
func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// generate builds a workload's inputs from the seed.
func generate(w *workload, seed int64, traced bool) (*inputs, error) {
	if w.tenants == 1 {
		return generateSingle(w, seed)
	}
	return generateTenants(w, seed, traced)
}

// generateSingle simulates one cluster and encodes its records straight
// into untagged frames, batch by batch. No runner reads them, so the
// records themselves are not kept.
func generateSingle(w *workload, seed int64) (*inputs, error) {
	spec, err := cluster.Preset(w.preset, w.scale)
	if err != nil {
		return nil, err
	}
	spec.Seed += seed
	c, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	td := &tenantData{name: "default"}
	in := &inputs{tenants: []*tenantData{td}}
	s := &in.live
	var lastMinute time.Time
	batchStart := 0
	collect := func(recs []flowlog.Record) error {
		for _, r := range recs {
			m := r.Time.Truncate(time.Minute)
			if m.Before(lastMinute) {
				return fmt.Errorf("cluster emitted records out of order (%v after %v)", m, lastMinute)
			}
			if m.After(lastMinute) {
				lastMinute = m
				td.liveWindows++
			}
			s.frames = flowlog.AppendBinary(s.frames, r)
			s.records++
			if s.records-batchStart == sendBatch {
				s.batches = append(s.batches, batchRef{off: batchStart * flowlog.WireSize, end: len(s.frames), n: sendBatch})
				batchStart = s.records
			}
		}
		return nil
	}
	s.frames = make([]byte, 0, estimateRecords(w)*flowlog.WireSize)
	if _, err := c.Run(epochStart, w.liveMinutes, nicsim.CollectorFunc(collect)); err != nil {
		return nil, err
	}
	if n := s.records - batchStart; n > 0 {
		s.batches = append(s.batches, batchRef{off: batchStart * flowlog.WireSize, end: len(s.frames), n: n})
	}
	td.liveCount = s.records
	return in, nil
}

// estimateRecords sizes the frame buffer up front (k8spaas@0.25 emits
// about 0.96M records an hour).
func estimateRecords(w *workload) int {
	return int(float64(w.liveMinutes) * w.scale * 4.0e6 / 60)
}

// generateTenants simulates w.tenants independent subscriptions with
// flowgen's zipf scheme — tenant i runs the preset seeded seed+i and keeps
// 1/(i+1) of its records — over history and live hours, then interleaves
// them chronologically (ties to the lower tenant index) into tagged
// frames.
func generateTenants(w *workload, seed int64, traced bool) (*inputs, error) {
	spec, err := cluster.Preset(w.preset, w.scale)
	if err != nil {
		return nil, err
	}
	in := &inputs{tenants: make([]*tenantData, w.tenants)}
	split := epochStart.Add(time.Duration(w.historyHours) * time.Hour)
	errs := make([]error, w.tenants)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2) // the benchmark box has two cores
	for i := range w.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := spec
			s.Seed = spec.Seed + seed + int64(i)
			c, err := cluster.New(s)
			if err != nil {
				errs[i] = err
				return
			}
			td := &tenantData{name: tenantName(i)}
			keep, seen := i+1, 0
			collect := func(recs []flowlog.Record) error {
				for _, r := range recs {
					if seen%keep == 0 {
						if r.Time.Before(split) {
							td.history = append(td.history, r)
						} else {
							td.live = append(td.live, r)
						}
					}
					seen++
				}
				return nil
			}
			if _, err := c.Run(epochStart, w.historyHours*60+w.liveMinutes, nicsim.CollectorFunc(collect)); err != nil {
				errs[i] = err
				return
			}
			td.liveCount = len(td.live)
			td.liveWindows = countWindows(td.live)
			in.tenants[i] = td
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, td := range in.tenants {
		if err := checkOrdered(td.history); err != nil {
			return nil, fmt.Errorf("%s history: %w", td.name, err)
		}
		if err := checkOrdered(td.live); err != nil {
			return nil, fmt.Errorf("%s live: %w", td.name, err)
		}
	}
	pick := func(td *tenantData) []flowlog.Record { return td.history }
	in.history = interleave(in.tenants, pick, nil)
	pick = func(td *tenantData) []flowlog.Record { return td.live }
	in.live = interleave(in.tenants, pick, nil)
	if traced {
		in.traced = interleave(in.tenants, pick, trace.NewSampler(taggedSampleEvery, uint64(seed)))
	}
	return in, nil
}

// countWindows counts the distinct 1-minute windows of a time-ordered
// record sequence.
func countWindows(recs []flowlog.Record) int {
	n := 0
	var last time.Time
	for _, r := range recs {
		if m := r.Time.Truncate(time.Minute); m.After(last) {
			last = m
			n++
		}
	}
	return n
}

// checkOrdered rejects a stream whose windows go backwards: the split into
// history and live hours, and the reference replay, assume the simulated
// collector reports in time order.
func checkOrdered(recs []flowlog.Record) error {
	var last time.Time
	for _, r := range recs {
		m := r.Time.Truncate(time.Minute)
		if m.Before(last) {
			return fmt.Errorf("records out of order (%v after %v)", m, last)
		}
		last = m
	}
	return nil
}

// interleave k-way merges the tenants' streams by record time and encodes
// each record as a tagged frame. With a sampler, every sampled record
// also carries its trace context (flag 0x03), which is how a traced
// collection fabric hands contexts to the daemon.
func interleave(tenants []*tenantData, pick func(*tenantData) []flowlog.Record, sampler *trace.Sampler) stream {
	s := stream{tagged: true}
	idx := make([]int, len(tenants))
	batchStart, inBatch := 0, 0
	for {
		best := -1
		for i, td := range tenants {
			recs := pick(td)
			if idx[i] >= len(recs) {
				continue
			}
			if best < 0 || recs[idx[i]].Time.Before(pick(tenants[best])[idx[best]].Time) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		rec := pick(tenants[best])[idx[best]]
		idx[best]++
		var tc trace.Context
		if sampler != nil {
			tc = sampler.Next()
		}
		s.frames = appendTaggedFrame(s.frames, rec, tc, tenants[best].name)
		s.records++
		inBatch++
		if inBatch == sendBatch {
			s.batches = append(s.batches, batchRef{off: batchStart, end: len(s.frames), n: inBatch})
			batchStart, inBatch = len(s.frames), 0
		}
	}
	if inBatch > 0 {
		s.batches = append(s.batches, batchRef{off: batchStart, end: len(s.frames), n: inBatch})
	}
	return s
}

// appendTaggedFrame encodes one flagged INGEST frame with a tenant tag and,
// when tc is sampled, the 16-byte trace field — the documented wire
// layout [flag][record][trace id][span id][len][name]. Untraced frames go
// through the package's own encoder.
func appendTaggedFrame(buf []byte, rec flowlog.Record, tc trace.Context, tenant string) []byte {
	if !tc.Sampled() {
		return analytics.AppendTagged(buf, rec, tenant)
	}
	buf = append(buf, 0x03)
	buf = flowlog.AppendBinary(buf, rec)
	buf = binary.LittleEndian.AppendUint64(buf, tc.TraceID)
	buf = binary.LittleEndian.AppendUint64(buf, tc.SpanID)
	buf = append(buf, byte(len(tenant)))
	return append(buf, tenant...)
}
