package main

import (
	"strings"
	"sync"
	"time"

	"cloudgraph/internal/realm"
	"cloudgraph/internal/watermark"
)

// pollEvery is the poller's period. At the tenants-durable rate a tenant
// seals a window about every 130 ms and each stage advances once per
// window, so a 1 ms poll observes every epoch on its own; the times it
// records are the tracker's exact SealedAt and LastAdvance stamps, never
// the poll tick.
const pollEvery = time.Millisecond

// stageTrack records when each epoch reached one watermark stage.
type stageTrack struct {
	last uint64
	at   map[uint64]time.Time
}

// tenantTrack is one tenant's observed seal and stage history.
type tenantTrack struct {
	sealed stageTrack
	stages map[string]*stageTrack
	order  []string
	start  uint64 // sealed epoch when polling began
}

// poller samples the daemon's own progress counters: every tenant's
// watermark.Tracker.Snapshot (when watermarks is set), the scheduler
// queue depth and the consumer-bus depth.
type poller struct {
	m          *realm.Manager
	watermarks bool

	stop chan struct{}
	done sync.WaitGroup

	mu            sync.Mutex
	tenants       map[string]*tenantTrack
	jumped        int // epochs a watermark passed between two polls
	schedDepthMax int
	busDepthMax   int
}

func startPoller(m *realm.Manager, watermarks bool) *poller {
	p := &poller{m: m, watermarks: watermarks, stop: make(chan struct{}), tenants: make(map[string]*tenantTrack)}
	p.poll()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.poll()
			}
		}
	}()
	return p
}

// finish stops the poller after one last poll. A nil poller (none was
// started) has nothing to stop.
func (p *poller) finish() {
	if p == nil {
		return
	}
	close(p.stop)
	p.done.Wait()
	p.poll()
}

func (p *poller) poll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	sched := 0
	for _, q := range p.m.Scheduler().Stats() {
		sched += q.Depth
	}
	p.schedDepthMax = max(p.schedDepthMax, sched)
	bus := 0
	for _, r := range p.m.Realms() {
		for _, c := range r.Engine().Bus().Stats() {
			bus += c.Depth
		}
		if p.watermarks {
			p.observe(r, r.Watermarks().Snapshot())
		}
	}
	p.busDepthMax = max(p.busDepthMax, bus)
}

// observe folds one snapshot into the tenant's track. An epoch seen
// alone gets its exact stamp; epochs passed between two polls are
// counted as jumped and get no latency sample.
func (p *poller) observe(r *realm.Realm, snap watermark.Snapshot) {
	tt := p.tenants[r.Name()]
	if tt == nil {
		tt = &tenantTrack{stages: make(map[string]*stageTrack), start: snap.Sealed}
		tt.sealed = stageTrack{last: snap.Sealed, at: make(map[uint64]time.Time)}
		p.tenants[r.Name()] = tt
	}
	p.advance(&tt.sealed, snap.Sealed, snap.SealedAt)
	for _, st := range snap.Stages {
		s := tt.stages[st.Name]
		if s == nil {
			s = &stageTrack{last: st.Epoch, at: make(map[uint64]time.Time)}
			tt.stages[st.Name] = s
			tt.order = append(tt.order, st.Name)
		}
		p.advance(s, st.Epoch, st.LastAdvance)
	}
}

func (p *poller) advance(s *stageTrack, epoch uint64, at time.Time) {
	if epoch <= s.last {
		return
	}
	// at stamps the newest epoch exactly; any between were passed unseen.
	p.jumped += int(epoch - s.last - 1)
	s.at[epoch] = at
	s.last = epoch
}

// lag is the backlog right now: per tenant, the sealed windows its
// slowest stage has not processed, summed over tenants.
func (p *poller) lag() int {
	total := 0
	for _, r := range p.m.Realms() {
		snap := r.Watermarks().Snapshot()
		worst := uint64(0)
		for _, st := range snap.Stages {
			worst = max(worst, st.Lag)
		}
		total += int(worst)
	}
	return total
}

// latencies are the per tenant-window seal-to-stage samples in ms.
type latencies struct {
	queryable, durable, published []float64
	analyzed                      map[string][]float64 // by runner
}

// latencies computes, for every epoch sealed while polling, seal → the
// slowest analyzed.* advance, seal → durable, seal → published, and
// seal → each runner's advance. An epoch is used only where every stamp
// it needs was observed on its own.
func (p *poller) latencies() latencies {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := latencies{analyzed: make(map[string][]float64)}
	for _, tt := range p.tenants {
		for e := tt.start + 1; e <= tt.sealed.last; e++ {
			seal, ok := tt.sealed.at[e]
			if !ok {
				continue
			}
			var slowest time.Time
			allAnalyzed, anyAnalyzed := true, false
			for _, name := range tt.order {
				at, ok := tt.stages[name].at[e]
				switch {
				case strings.HasPrefix(name, "analyzed."):
					anyAnalyzed = true
					if !ok {
						allAnalyzed = false
						continue
					}
					runner := strings.TrimPrefix(name, "analyzed.")
					out.analyzed[runner] = append(out.analyzed[runner], ms(at.Sub(seal)))
					if at.After(slowest) {
						slowest = at
					}
				case name == "durable" && ok:
					out.durable = append(out.durable, ms(at.Sub(seal)))
				case name == "published" && ok:
					out.published = append(out.published, ms(at.Sub(seal)))
				}
			}
			if anyAnalyzed && allAnalyzed {
				out.queryable = append(out.queryable, ms(slowest.Sub(seal)))
			}
		}
	}
	return out
}
