package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The ledger turns a traced run's spans into per-layer self times: a
// span's self time is its duration minus the part of it its child spans
// cover. It also measures how much of the delivery latency no span
// covers at all — trace.unattributed_pct.

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the total length of the union of ivs clipped to win.
func covered(win interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, win.lo), min(iv.hi, win.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curLo, curHi = iv.lo, iv.hi
		case iv.lo > curHi:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		case iv.hi > curHi:
			curHi = iv.hi
		}
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// seqRange is an inclusive range of sequence numbers.
type seqRange struct{ lo, hi int32 }

// traceSet is the spans of one traced run plus the sequence ranges of its
// paced slices, which are what the ledger summarises.
type traceSet struct {
	spans []span
	paced []seqRange
}

func (ts *traceSet) isPaced(seq int32) bool {
	for _, r := range ts.paced {
		if seq >= r.lo && seq <= r.hi {
			return true
		}
	}
	return false
}

// index groups span indices by (kind, seq).
func (ts *traceSet) index() map[[2]int32][]int32 {
	idx := map[[2]int32][]int32{}
	for i, s := range ts.spans {
		k := [2]int32{int32(s.kind), s.seq}
		idx[k] = append(idx[k], int32(i))
	}
	return idx
}

// link sets each span's parent: the innermost span of a parent kind with
// the same sequence number (and host, for receiver spans) that contains
// it.
func (ts *traceSet) link() {
	idx := ts.index()
	for i := range ts.spans {
		s := &ts.spans[i]
		best := int32(-1)
		for _, pk := range parentKinds[s.kind] {
			for _, j := range idx[[2]int32{int32(pk), s.seq}] {
				p := ts.spans[j]
				if p.start > s.start || p.end < s.end {
					continue
				}
				if s.kind == kReceiver && p.key != s.key {
					continue
				}
				if best < 0 || p.start > ts.spans[best].start {
					best = j
				}
			}
		}
		s.parent = best
	}
}

// derive adds the spans that are computed rather than timed, one per
// traced delivery: the egress wait from the fan-out end to the start of
// the transport send that carried the delivery (the latest send of its
// seq to its host that began before the receipt), and for session
// deliveries the delay from the fan-out end to the session client's
// receipt.
func (ts *traceSet) derive(sends map[[2]int32][]int32) {
	fanEnd := map[int32]int64{}
	for _, s := range ts.spans {
		if s.kind == kDispatchFanout {
			if _, ok := fanEnd[s.seq]; !ok {
				fanEnd[s.seq] = s.end
			}
		}
	}
	n := len(ts.spans)
	for i := 0; i < n; i++ {
		d := ts.spans[i]
		if d.kind != kDelivery {
			continue
		}
		fe, ok := fanEnd[d.seq]
		if !ok {
			continue
		}
		switch d.key {
		case keyWS, keyMQTT:
			k := kSessionWS
			if d.key == keyMQTT {
				k = kSessionMQTT
			}
			ts.spans = append(ts.spans, span{kind: k, start: min(fe, d.end), end: d.end, seq: d.seq, key: d.key, sub: d.sub, parent: -1})
		default:
			carried := int64(-1)
			for _, j := range sends[[2]int32{d.seq, d.key}] {
				if st := ts.spans[j].start; st <= d.end && st > carried {
					carried = st
				}
			}
			if carried >= 0 {
				ts.spans = append(ts.spans, span{kind: kEgressWait, start: min(fe, carried), end: carried, seq: d.seq, key: d.key, sub: d.sub, parent: -1})
			}
		}
	}
}

// Session deliveries have no receiver host; their delivery spans carry
// one of these keys instead.
const (
	keyWS   = -2
	keyMQTT = -3
)

// layerRow is one line of the ledger: a span kind's self time over the
// paced phase.
type layerRow struct {
	n        int
	p50, p99 float64 // microseconds
}

// ledger is the reduced trace.
type ledger struct {
	rows map[string]layerRow
	// unattributedPct is the share of delivery time near the median that
	// no span covers; deliveries counts the delivery spans behind it.
	unattributedPct float64
	deliveries      int
}

// reduce computes every layer's self time and the unattributed share of
// delivery latency. Spans must already be linked.
func (ts *traceSet) reduce() ledger {
	children := make([][]interval, len(ts.spans))
	for _, s := range ts.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	self := map[kind][]float64{}
	for i, s := range ts.spans {
		if !ts.isPaced(s.seq) || s.kind == kDelivery {
			continue
		}
		d := s.end - s.start - covered(interval{s.start, s.end}, children[i])
		self[s.kind] = append(self[s.kind], float64(d)/1e3)
	}
	lg := ledger{rows: map[string]layerRow{}}
	for k, v := range self {
		sort.Float64s(v)
		lg.rows[kindNames[k]] = layerRow{n: len(v), p50: quantile(v, 0.50), p99: quantile(v, 0.99)}
	}

	// Everything that may cover part of a delivery, by (seq, host/sub).
	pathKinds := map[kind]bool{kGenLag: true, kDoorHTTP: true, kCoreFront: true, kDoorCE: true, kBackendPublish: true, kDispatchFanout: true}
	bySeq := map[int32][]interval{}
	byHost := map[[2]int32][]interval{}
	bySub := map[[2]int32][]interval{}
	for _, s := range ts.spans {
		iv := interval{s.start, s.end}
		switch {
		case pathKinds[s.kind]:
			bySeq[s.seq] = append(bySeq[s.seq], iv)
		case s.kind == kTransportSend || s.kind == kReceiver:
			k := [2]int32{s.seq, s.key}
			byHost[k] = append(byHost[k], iv)
		case s.kind == kEgressWait || s.kind == kSessionWS || s.kind == kSessionMQTT:
			k := [2]int32{s.seq, s.sub}
			bySub[k] = append(bySub[k], iv)
		}
	}
	type dl struct{ total, uncovered int64 }
	var ds []dl
	for _, s := range ts.spans {
		if s.kind != kDelivery || !ts.isPaced(s.seq) {
			continue
		}
		ivs := append([]interval(nil), bySeq[s.seq]...)
		ivs = append(ivs, bySub[[2]int32{s.seq, s.sub}]...)
		if s.key >= 0 {
			ivs = append(ivs, byHost[[2]int32{s.seq, s.key}]...)
		}
		win := interval{s.start, s.end}
		total := s.end - s.start
		ds = append(ds, dl{total, total - covered(win, ivs)})
	}
	lg.deliveries = len(ds)
	if len(ds) > 0 {
		// The band of deliveries around the median latency: what share of
		// a typical delivery's time no layer accounts for.
		sort.Slice(ds, func(i, j int) bool { return ds[i].total < ds[j].total })
		lo, hi := len(ds)*45/100, len(ds)*55/100+1
		var tot, unc int64
		for _, d := range ds[lo:min(hi, len(ds))] {
			tot += d.total
			unc += d.uncovered
		}
		if tot > 0 {
			lg.unattributedPct = 100 * float64(unc) / float64(tot)
		}
	}
	return lg
}

// writeSpans exports one span record per line:
// name start_ns end_ns parent seq key sub. Parent is the line number
// (0-based, header excluded) of the parent span, -1 for none.
func (ts *traceSet) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# perfbench spans v2 paced")
	for _, r := range ts.paced {
		fmt.Fprintf(bw, " %d-%d", r.lo, r.hi)
	}
	fmt.Fprintln(bw)
	for _, s := range ts.spans {
		fmt.Fprintf(bw, "%s %d %d %d %d %d %d\n", kindNames[s.kind], s.start, s.end, s.parent, s.seq, s.key, s.sub)
	}
	return bw.Flush()
}

// readSpans parses what writeSpans wrote.
func readSpans(r io.Reader) (*traceSet, error) {
	ts := &traceSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		f := strings.Fields(sc.Text())
		if line == 1 {
			if len(f) < 5 || f[1] != "perfbench" || f[3] != "v2" || f[4] != "paced" {
				return nil, fmt.Errorf("spans: bad header %q", sc.Text())
			}
			for _, r := range f[5:] {
				a, b, ok := strings.Cut(r, "-")
				lo, err1 := strconv.ParseInt(a, 10, 32)
				hi, err2 := strconv.ParseInt(b, 10, 32)
				if !ok || err1 != nil || err2 != nil {
					return nil, fmt.Errorf("spans: bad header %q", sc.Text())
				}
				ts.paced = append(ts.paced, seqRange{int32(lo), int32(hi)})
			}
			continue
		}
		if len(f) != 7 {
			return nil, fmt.Errorf("spans: line %d: want 7 fields, got %d", line, len(f))
		}
		k, ok := kindByName(f[0])
		if !ok {
			return nil, fmt.Errorf("spans: line %d: unknown span %q", line, f[0])
		}
		var v [6]int64
		for i := range v {
			n, err := strconv.ParseInt(f[i+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("spans: line %d: %v", line, err)
			}
			v[i] = n
		}
		ts.spans = append(ts.spans, span{kind: k, start: v[0], end: v[1], parent: int32(v[2]), seq: int32(v[3]), key: int32(v[4]), sub: int32(v[5])})
	}
	return ts, sc.Err()
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// beyond is how many samples of n lie above the q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}
