package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/obs"
)

// result is what one measured run of a workload produced.
type result struct {
	setupS []float64 // seconds, one per set-up

	// Paced-phase samples in milliseconds.
	ack      [doorCount]windowed
	allAck   windowed
	lag      windowed
	delivery [egressCount]windowed
	allDeliv windowed

	phases          int       // phases this workload runs
	burstSize       int       // publishes per burst round
	burstRates      []float64 // deliveries per second, one per burst round
	burstDeliveries int64     // over all rounds
	pacedDeliveries int64
	httpDeliveries  int64 // paced deliveries that crossed the transport
	pacedCPU        time.Duration
	heapPeak        uint64
	pacedAlloc      uint64
	pacedGCs        uint64

	expected, candidates [phaseCount]int
	received             [phaseCount]int64
	publishes, refused   int
	unexpected, corrupt  int64
	dups                 int64
	outOfOrder           [egressCount]int64
	stats                dispatch.Stats
	pacedStats           dispatch.Stats
	conserved            bool

	// Traced runs only.
	layer  map[string]float64
	trace  *traceSet
	ledger ledger
}

// missing is the oracle-expected deliveries that never arrived.
func (res *result) missing() int64 {
	var m int64
	for ph := range res.expected {
		m += int64(res.expected[ph]) - res.received[ph]
	}
	return m
}

// attempted and failed count (publish, subscription) deliveries the
// oracle expects plus publishes; failures are deliveries missing at the
// receivers plus publishes the broker refused.
func (res *result) attempted() int64 {
	var n int64
	for _, e := range res.expected {
		n += int64(e)
	}
	return n + int64(res.publishes)
}

func (res *result) failed() int64 { return res.missing() + int64(res.refused) }

// correct is the run's verdict: nothing unexpected or corrupt arrived
// and the dispatch conservation law held at quiescence.
func (res *result) correct() bool {
	return res.unexpected == 0 && res.corrupt == 0 && res.conserved
}

// setUp boots a broker for the plan, makes every subscription through
// its door and runs the warm-up; the returned duration is the set-up
// time.
func setUp(s *spec, p *plan, opt options, origin time.Time, warmWant int) (*run, time.Duration, error) {
	r, err := newRun(s, p, opt, origin)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := r.boot(); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.subscribe(ctx); err != nil {
		r.close()
		return nil, 0, err
	}
	r.drive(0) // block 0 is the warm-up
	r.quiesce(0, warmWant)
	return r, time.Since(t0), nil
}

// measure runs one workload: set-up (opt.setups times), then the paced
// slices with a burst round after each, then checks the oracle and the
// conservation law.
func measure(s *spec, opt options) (*result, error) {
	p := newPlan(s, opt.seed, opt.paced)
	origin := time.Now()
	res := &result{publishes: len(p.events), burstSize: s.burst, phases: phaseBurst + s.rounds}
	var want []int
	res.expected, res.candidates, want = p.expected(s.subs())

	var r *run
	for i := 0; i < opt.setups; i++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if r, d, err = setUp(s, p, opt, origin, want[0]); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, d.Seconds())
	}
	defer r.close()

	var heapPeak atomic.Uint64
	var queuePeak atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if h, _, _ := runtimeSample(); h > heapPeak.Load() {
				heapPeak.Store(h)
			}
			if dw := r.broker.DestWriter(); r.tr != nil && dw != nil {
				if q := int64(dw.QueueDepth()); q > queuePeak.Load() {
					queuePeak.Store(q)
				}
			}
		}
	}()

	// Every block starts from a fresh collection, not from whatever
	// garbage the set-ups or the block before happened to leave behind.
	// The paced figures are summed over the paced slices alone.
	var paced snapshot
	for blk := 1; blk < len(p.blocks); blk++ {
		runtime.GC()
		if p.blocks[blk].phase != phasePaced {
			r.drive(blk)
			r.quiesce(blk, want[blk])
			continue
		}
		before := brokerSnapshot(r)
		cpu0 := cpuTime()
		_, alloc0, gc0 := runtimeSample()
		r.drive(blk)
		r.quiesce(blk, want[blk])
		res.pacedCPU += cpuTime() - cpu0
		_, alloc1, gc1 := runtimeSample()
		res.pacedAlloc += alloc1 - alloc0
		res.pacedGCs += gc1 - gc0
		paced.add(brokerSnapshot(r), before)
	}
	close(stop)
	sampler.Wait()
	res.heapPeak = heapPeak.Load()

	res.stats, res.conserved = r.conserved()
	res.pacedStats = paced.stats
	for blk, b := range p.blocks {
		res.received[b.phase] += r.received[blk].Load()
	}
	res.unexpected, res.corrupt = r.unexpected.Load(), r.corrupt.Load()
	res.dups = r.dups.Load()
	for eg := range res.outOfOrder {
		res.outOfOrder[eg] = r.outOfOrder[eg].Load()
	}
	res.pacedDeliveries = res.received[phasePaced]
	for blk, b := range p.blocks {
		if b.phase < phaseBurst {
			continue
		}
		n := r.received[blk].Load()
		wall := time.Duration(r.lastRecv[blk].Load() - r.start[blk].Load())
		res.burstRates = append(res.burstRates, float64(n)/wall.Seconds())
		res.burstDeliveries += n
	}

	for _, e := range p.events {
		if r.refused[e.seq] {
			res.refused++
		}
		if e.phase != phasePaced {
			continue
		}
		due := r.due(&e)
		ms, w := float64(r.acked[e.seq]-due)/1e6, r.window(&e)
		res.ack[e.door][w] = append(res.ack[e.door][w], ms)
		res.allAck[w] = append(res.allAck[w], ms)
		res.lag[w] = append(res.lag[w], float64(r.sent[e.seq]-due)/1e6)
	}
	sinks := []*sink{r.ws, r.mqttS}
	for _, h := range r.hosts {
		sinks = append(sinks, &h.sink)
	}
	for _, k := range sinks {
		for eg := range k.lat {
			for w, lat := range k.lat[eg] {
				for _, ns := range lat {
					ms := float64(ns) / 1e6
					res.delivery[eg][w] = append(res.delivery[eg][w], ms)
					res.allDeliv[w] = append(res.allDeliv[w], ms)
				}
				if egress(eg) == egressSOAP || egress(eg) == egressCE {
					res.httpDeliveries += int64(len(lat))
				}
			}
		}
	}

	if r.tr != nil {
		res.layer = layerFigures(r, res, paced, queuePeak.Load())
		r.close() // no span is recorded after the broker has stopped
		ts := &traceSet{spans: r.tr.spans, paced: pacedRanges(p)}
		ts.derive(r.tr.sends)
		ts.link()
		res.trace = ts
		res.ledger = ts.reduce()
	}
	return res, nil
}

// pacedRanges is the sequence range of each paced slice; events are
// numbered in block order, so each slice's range is contiguous.
func pacedRanges(p *plan) []seqRange {
	var out []seqRange
	for _, e := range p.events {
		switch {
		case e.phase != phasePaced:
		case len(out) > 0 && out[len(out)-1].hi == int32(e.seq)-1:
			out[len(out)-1].hi = int32(e.seq)
		default:
			out = append(out, seqRange{int32(e.seq), int32(e.seq)})
		}
	}
	return out
}

// snapshot is the broker-side counters and histograms at one instant,
// or the sum of their changes over the paced slices.
type snapshot struct {
	stats                           dispatch.Stats
	render, appendH, fsync, deliver obs.HistogramSnapshot
	hits, misses                    uint64
	appends, fsyncs                 uint64
	sends, bytes                    uint64 // traced client, traced runs only
}

func brokerSnapshot(r *run) snapshot {
	comp := obs.L("component", "broker")
	s := snapshot{
		stats:   r.broker.DispatchStats(),
		render:  r.reg.Histogram("wsm_mediation_render_seconds", "", nil, comp).Snapshot(),
		appendH: r.reg.Histogram("wsm_log_append_seconds", "", nil, comp).Snapshot(),
		fsync:   r.reg.Histogram("wsm_log_fsync_seconds", "", nil, comp).Snapshot(),
		deliver: r.rec.StageSnapshot(obs.StageDeliver),
		hits:    r.reg.Counter("wsm_render_cache_hits_total", "", comp).Load(),
		misses:  r.reg.Counter("wsm_render_cache_misses_total", "", comp).Load(),
	}
	if l := r.broker.Log(); l != nil {
		st := l.Stats()
		s.appends, s.fsyncs = st.Appends, st.Fsyncs
	}
	if r.traced != nil {
		s.sends, s.bytes, _ = r.traced.counts()
	}
	return s
}

// add adds to s what changed from before to after.
func (s *snapshot) add(after, before snapshot) {
	s.stats = statsSum(s.stats, statsDelta(after.stats, before.stats))
	s.render = histSum(s.render, histDelta(after.render, before.render))
	s.appendH = histSum(s.appendH, histDelta(after.appendH, before.appendH))
	s.fsync = histSum(s.fsync, histDelta(after.fsync, before.fsync))
	s.deliver = histSum(s.deliver, histDelta(after.deliver, before.deliver))
	s.hits += after.hits - before.hits
	s.misses += after.misses - before.misses
	s.appends += after.appends - before.appends
	s.fsyncs += after.fsyncs - before.fsyncs
	s.sends += after.sends - before.sends
	s.bytes += after.bytes - before.bytes
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerFigures gathers the per-layer figures the broker's own counters
// and histograms give, over the paced slices (paced) unless noted.
func layerFigures(r *run, res *result, paced snapshot, queuePeak int64) map[string]float64 {
	m := map[string]float64{}
	m["mediation.render_p50_us"] = us(paced.render.Quantile(0.5))
	m["mediation.cache_hit_ratio"] = ratio(paced.hits, paced.hits+paced.misses)
	m["eventlog.append_p50_us"] = us(paced.appendH.Quantile(0.5))
	m["eventlog.fsync_p50_us"] = us(paced.fsync.Quantile(0.5))
	m["eventlog.fsync_p99_us"] = us(paced.fsync.Quantile(0.99))
	m["eventlog.appends_per_fsync"] = ratio(paced.appends, paced.fsyncs)
	m["dispatch.deliver_p50_us"] = us(paced.deliver.Quantile(0.5))
	ps := res.pacedStats
	m["dispatch.matched_per_publish"] = ratio(ps.Matched, ps.Published)
	m["dispatch.filter_pass_ratio"] = ratio(ps.Matched, uint64(res.candidates[phasePaced]))
	// Whole run: any drop or retry at all is news.
	m["dispatch.dropped"] = float64(res.stats.Dropped)
	m["dispatch.retries"] = float64(res.stats.Retries)
	if dw := r.broker.DestWriter(); dw != nil {
		m["destwriter.entries_per_envelope"] = dw.CoalesceRatio()
		m["destwriter.queue_depth_peak"] = float64(queuePeak)
		m["destwriter.inflight_peak"] = float64(dw.PeakInflight())
		m["destwriter.window_decreases"] = float64(dw.WindowDecreases())
	}
	kdel := float64(res.httpDeliveries) / 1000
	if kdel > 0 {
		m["transport.sends_per_kdelivery"] = float64(paced.sends) / kdel
		m["transport.bytes_per_delivery"] = float64(paced.bytes) / (kdel * 1000)
	}
	_, _, errs := r.traced.counts()
	m["transport.errors"] = float64(errs)
	if res.pacedDeliveries > 0 {
		m["proc.alloc_kb_per_delivery"] = float64(res.pacedAlloc) / 1024 / float64(res.pacedDeliveries)
	}
	m["proc.gc_cycles"] = float64(res.pacedGCs)
	return m
}

func statsDelta(a, b dispatch.Stats) dispatch.Stats {
	return dispatch.Stats{
		Published:    a.Published - b.Published,
		Matched:      a.Matched - b.Matched,
		Delivered:    a.Delivered - b.Delivered,
		Dropped:      a.Dropped - b.Dropped,
		Failed:       a.Failed - b.Failed,
		DeadLettered: a.DeadLettered - b.DeadLettered,
		Retries:      a.Retries - b.Retries,
		BreakerTrips: a.BreakerTrips - b.BreakerTrips,
	}
}

func statsSum(a, b dispatch.Stats) dispatch.Stats {
	return dispatch.Stats{
		Published:    a.Published + b.Published,
		Matched:      a.Matched + b.Matched,
		Delivered:    a.Delivered + b.Delivered,
		Dropped:      a.Dropped + b.Dropped,
		Failed:       a.Failed + b.Failed,
		DeadLettered: a.DeadLettered + b.DeadLettered,
		Retries:      a.Retries + b.Retries,
		BreakerTrips: a.BreakerTrips + b.BreakerTrips,
	}
}

// histSum is the histogram of the observations of a and b together; a
// may be the zero value.
func histSum(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if a.Counts == nil {
		return b
	}
	for i := range a.Counts {
		if i < len(b.Counts) {
			a.Counts[i] += b.Counts[i]
		}
	}
	a.Sum += b.Sum
	a.Total += b.Total
	return a
}

// histDelta is the histogram of the observations made between b and a.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts)), Sum: a.Sum - b.Sum, Total: a.Total - b.Total}
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			d.Counts[i] -= b.Counts[i]
		}
	}
	return d
}

// windows is how many equal slices of the paced phase the latency
// samples are kept in: one a second in a 30-second phase, so a noisy
// stretch of a few seconds moves a few groups, not the median of them.
const windows = 30

// windowed holds paced-phase samples by the window their publish was
// scheduled in.
type windowed [windows][]float64

func (w *windowed) n() int {
	n := 0
	for _, s := range w {
		n += len(s)
	}
	return n
}

// quantile is the median, over groups of adjacent windows, of each
// group's q-quantile. It uses as many groups (at most windows) as leave
// every group at least ten samples beyond the quantile, so one transient
// stall moves one group's figure, not the reported one. It also returns
// the number of groups.
func (w *windowed) quantile(q float64) (float64, int) {
	need := int(math.Round(10 / (1 - q)))
	g := max(1, min(windows, w.n()/need))
	vals := make([]float64, 0, g)
	for i := 0; i < g; i++ {
		var grp []float64
		for j := i * windows / g; j < (i+1)*windows/g; j++ {
			grp = append(grp, w[j]...)
		}
		if len(grp) > 0 {
			sort.Float64s(grp)
			vals = append(vals, quantile(grp, q))
		}
	}
	return median(vals), g
}
