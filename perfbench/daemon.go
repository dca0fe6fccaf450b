package main

import (
	"errors"
	"time"

	"cloudgraph/internal/analytics"
	"cloudgraph/internal/core"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/timeline"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

// ingestShards is the daemon's -workers: one flow-key shard per worker.
const ingestShards = 4

// daemonConfig is the part of cloudgraphd's flag set a workload varies.
// Everything else is cloudgraphd's default.
type daemonConfig struct {
	live        bool
	dataDir     string // "" = no durable history
	sampleEvery int    // record span sampling (0 = off, the shipped default)
}

// daemon is cloudgraphd assembled in-process: realm.NewManager plus
// analytics.ServeRealms with the daemon's defaults, except 1-minute
// windows and four ingest shards. The diag bundles, /statusz and the ops
// HTTP listener are left out; they sit beside the data path.
type daemon struct {
	reg *telemetry.Registry
	tr  *trace.Tracer
	m   *realm.Manager
	srv *analytics.Server
}

// startDaemon builds and starts the daemon, including recovery of any
// history under cfg.dataDir.
func startDaemon(cfg daemonConfig) (*daemon, error) {
	// cloudgraphd's tracer: always on, span sampling per -trace-sample.
	// The event log stays flight-only; the benchmark's stdout is its report.
	topts := trace.Options{SampleEvery: cfg.sampleEvery, FlightEvents: trace.DefaultFlightEvents}
	if cfg.sampleEvery > 0 {
		// Keep every sampled trace of a pass: the default recorder holds
		// 256, and the roll-up span FLUSH records on each of them would
		// evict every ingest and analysis span before they are read.
		topts.MaxTraces = 1 << 15
	}
	tr := trace.New(topts)
	reg := telemetry.NewRegistry()
	rollup := time.Hour
	rcfg := realm.Config{
		Engine: core.Config{
			Window:     time.Minute, // -window 1m
			MaxWindows: 48,
			Shards:     ingestShards,
			Facet:      graph.FacetIP,
		},
		Live:       cfg.live,
		Timeline:   timeline.Config{Retention: 96, Rollup: rollup},
		Watermark:  watermark.Config{FreshnessTarget: 5 * time.Second, Trip: 3},
		DataDir:    cfg.dataDir,
		Hist:       histstore.Options{Retention: 24 * time.Hour, RollupBucket: rollup},
		MaxTenants: 64,
		Workers:    4,
		Telemetry:  reg,
		Trace:      tr,
	}
	if cfg.dataDir != "" {
		rcfg.CompactEvery = time.Minute
	}
	m, err := realm.NewManager(rcfg)
	if err != nil {
		return nil, err
	}
	m.Default().Watermarks().Instrument(reg)
	srv, err := analytics.ServeRealms("127.0.0.1:0", m, reg, analytics.Options{})
	if err != nil {
		return nil, errors.Join(err, m.Close())
	}
	return &daemon{reg: reg, tr: tr, m: m, srv: srv}, nil
}

// stop shuts the daemon down the way cloudgraphd does on SIGTERM.
func (d *daemon) stop() error {
	err := d.srv.Close()
	if merr := d.m.Close(); err == nil {
		err = merr
	}
	return err
}

// histSum reads a histogram the daemon registered, as (sum, count).
func (d *daemon) histSum(name string, labels ...telemetry.Label) (float64, uint64) {
	h := d.reg.Histogram(name, "", telemetry.DurBuckets, labels...)
	return h.Sum(), h.Count()
}
