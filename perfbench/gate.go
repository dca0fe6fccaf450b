package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/runner"
)

// reference is the correctness gate's expected QUERY bytes: a
// single-threaded runner.Plane.Replay of each tenant's records (history
// then live) with 1-minute windows, keyed tenant → runner → epoch over
// the epochs the plane retains.
type reference struct {
	results map[string]map[string]map[uint64][]byte
	// replay is the summed wall time of the replays: the single-threaded
	// baseline of the whole analysis job.
	replay time.Duration
}

// buildReference replays every tenant's records, one tenant at a time on
// the calling goroutine, so replay is a clean single-threaded baseline.
func buildReference(in *inputs) (*reference, error) {
	ref := &reference{results: make(map[string]map[string]map[uint64][]byte)}
	for _, td := range in.tenants {
		byRunner, d, err := replayTenant(td)
		if err != nil {
			return nil, err
		}
		ref.results[td.name] = byRunner
		ref.replay += d
	}
	return ref, nil
}

// replayTenant replays one tenant's history then live records through a
// fresh plane and reads back every retained result.
func replayTenant(td *tenantData) (map[string]map[uint64][]byte, time.Duration, error) {
	recs := make([]flowlog.Record, 0, len(td.history)+len(td.live))
	recs = append(append(recs, td.history...), td.live...)
	p := runner.New(runner.Config{})
	start := time.Now()
	p.Replay(recs, runner.ReplayOptions{Window: time.Minute})
	d := time.Since(start)
	byRunner := make(map[string]map[uint64][]byte)
	for _, r := range p.Runners() {
		lo, hi := p.Epochs(r)
		if lo == 0 {
			return nil, d, fmt.Errorf("reference %s/%s produced no windows", td.name, r)
		}
		byEpoch := make(map[uint64][]byte, hi-lo+1)
		for ep := lo; ep <= hi; ep++ {
			_, b, err := p.Query(r, ep)
			if err != nil {
				return nil, d, fmt.Errorf("reference %s/%s@%d: %w", td.name, r, ep, err)
			}
			byEpoch[ep] = b
		}
		byRunner[r] = byEpoch
	}
	return byRunner, d, nil
}

// queryGate asks the daemon, over the wire, for every runner's result at
// every retained epoch of every tenant and compares the bytes with the
// reference. An ERR answer is a missed epoch; different bytes are a
// mismatch.
func (e *env) queryGate(c *client, res *passResult) error {
	tenants := make([]string, 0, len(e.ref.results))
	for t := range e.ref.results {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		if _, err := c.command("TENANT " + t); err != nil {
			return err
		}
		byRunner := e.ref.results[t]
		runners := make([]string, 0, len(byRunner))
		for r := range byRunner {
			runners = append(runners, r)
		}
		sort.Strings(runners)
		for _, r := range runners {
			epochs := make([]uint64, 0, len(byRunner[r]))
			for ep := range byRunner[r] {
				epochs = append(epochs, ep)
			}
			sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
			for _, ep := range epochs {
				res.gateQueries++
				got, err := c.query(r, strconv.FormatUint(ep, 10))
				var er *errResponse
				switch {
				case errors.As(err, &er):
					res.missed++
					res.gateErrs = append(res.gateErrs, fmt.Sprintf("%s QUERY %s %d: %v", t, r, ep, err))
					continue
				case err != nil:
					return err
				}
				if got.Epoch != ep || !bytes.Equal(got.Result, byRunner[r][ep]) {
					res.mismatches++
					res.gateErrs = append(res.gateErrs, fmt.Sprintf("%s QUERY %s %d differs from the reference replay", t, r, ep))
				}
			}
		}
	}
	return nil
}
