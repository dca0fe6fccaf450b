package main

// workload is one traffic mix. Every field is fixed here; only the seed
// comes from the command line.
type workload struct {
	name   string
	preset string
	scale  float64
	// liveMinutes of records are sent in each pass; historyHours more are
	// written to the data directory beforehand and recovered at start-up.
	liveMinutes, historyHours int
	tenants                   int
	live, durable             bool
	// openLoop sends batches on a fixed schedule of rate records/s, and
	// a second connection reads on its own schedule (see queryEvery);
	// otherwise the one connection sends its next batch when the last is
	// acknowledged, and nothing reads during the pass.
	openLoop bool
	rate     float64
	// setups is how many set-up samples setup_s is the median of: passes
	// count, and set-up-only cycles make up the rest.
	setups int
	why    string
}

// tenantsDurableRate is the fixed aggregate send rate of tenants-durable:
// about half the closed-loop capacity of the same workload (153K-177K
// rec/s at seed 1, 95K-145K at seed 2, FLUSH included) measured on a
// 2-core x86-64 box (see README.md), so the daemon sustains it and
// latency reflects queueing inside the pipeline, not a growing backlog.
const tenantsDurableRate = 75000

// sendBatch is the records per INGEST batch of every workload: the
// default of the repository's own sender, graphctl send -batch.
const sendBatch = 4096

var workloads = []*workload{
	{
		name: "ingest-only", preset: "k8spaas", scale: 0.25, liveMinutes: 60, tenants: 1,
		setups: 31,
		why: "No runner runs, so wire decode, realm admission, shard fold and merge/freeze do all the work; " +
			"an analysis-kernel change must show no effect here and an ingest change its full effect.",
	},
	{
		name: "tenants-durable", preset: "k8spaas", scale: 0.1, liveMinutes: 60, historyHours: 1, tenants: 8,
		live: true, durable: true, openLoop: true, rate: tenantsDurableRate, setups: 3,
		why: "The only workload that exercises the DRR scheduler, mixed-batch regroup, histstore append/fsync " +
			"and replay, and the QUERY read path, under a load the system sustains; the home of the latency metrics.",
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
