package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/workload"
)

// attributionSpec is a small, lightly loaded workload: 20 WSN 1.3
// subscribers on two hosts, SOAP publishes at 25/s, so nothing queues and
// an added millisecond has nowhere to hide but the layer it was added to.
func attributionSpec() *spec {
	return &spec{
		name:    "attribution",
		why:     "attribution self-test",
		rate:    25,
		burst:   10,
		rounds:  1,
		warm:    200 * time.Millisecond,
		size:    workload.Small,
		topics:  1,
		hosts:   2,
		doorFor: func(int) door { return doorSOAP },
		subs: func() []subDef {
			out := make([]subDef, 20)
			for i := range out {
				out[i] = subDef{form: formWSN13, topic: 0, user: -1, host: i % 2}
			}
			return out
		},
	}
}

func selfTimes(t *testing.T, inj injection) map[string]float64 {
	t.Helper()
	res, err := measure(attributionSpec(), options{
		seed: 7, paced: 2 * time.Second, traced: true, setups: 1, inject: inj, workDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.failed() != 0 {
		t.Fatalf("run not clean: correct=%v failed=%d", res.correct(), res.failed())
	}
	out := map[string]float64{}
	for name, row := range res.ledger.rows {
		out[name] = row.p50
	}
	return out
}

// TestAttribution injects a 1 ms sleep at one wrapper boundary at a time
// and checks, from the ledger alone, that the added time lands in that
// layer's self-time row and in no other.
func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a broker for several seconds")
	}
	base := selfTimes(t, injection{})
	cases := []struct {
		layer string
		inj   injection
	}{
		{"backend.publish", injection{backend: time.Millisecond}},
		{"transport.send", injection{send: time.Millisecond}},
		{"receiver", injection{receiver: time.Millisecond}},
	}
	for _, c := range cases {
		got := selfTimes(t, c.inj)
		for row, b := range base {
			g, ok := got[row]
			if !ok {
				t.Errorf("%s injected: row %s missing", c.layer, row)
				continue
			}
			d := g - b // microseconds
			if row == c.layer {
				if d < 800 || d > 2500 {
					t.Errorf("%s injected: its own row moved %.0f us, want about +1000", c.layer, d)
				}
			} else if math.Abs(d) > 400 {
				t.Errorf("%s injected: row %s moved %.0f us, want no change", c.layer, row, d)
			}
		}
	}
}

func TestScanEntries(t *testing.T) {
	keyed := []byte(`<n:Notify><n:NotificationMessage><n:SubscriptionReference><a:ReferenceParameters>` +
		`<m:SubscriptionId xmlns:m="urn:x">wsm-7</m:SubscriptionId></a:ReferenceParameters></n:SubscriptionReference>` +
		`<n:Message><w:JobEvent><w:seq>12</w:seq><w:job>job-000042</w:job><w:sched>500</w:sched></w:JobEvent></n:Message></n:NotificationMessage>` +
		`<n:NotificationMessage><n:SubscriptionReference><m:SubscriptionId>wsm-9</m:SubscriptionId></n:SubscriptionReference>` +
		`<n:Message><c:Event><c:Data>{"seq":13,"sched":600,"job":"job-000043"}</c:Data></c:Event></n:Message></n:NotificationMessage></n:Notify>`)
	var got []entry
	if bad := scanEntries(keyed, true, func(e entry) { got = append(got, e) }); bad != 0 {
		t.Fatalf("corrupt = %d", bad)
	}
	want := []entry{{sid: []byte("wsm-7"), seq: 12, sched: 500, job: []byte("job-000042")}, {sid: []byte("wsm-9"), seq: 13, sched: 600, job: []byte("job-000043")}}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !bytes.Equal(g.sid, w.sid) || g.seq != w.seq || g.sched != w.sched || !bytes.Equal(g.job, w.job) {
			t.Errorf("entry %d = %s/%d/%d/%s, want %s/%d/%d/%s", i, g.sid, g.seq, g.sched, g.job, w.sid, w.seq, w.sched, w.job)
		}
	}
	// A WebSocket frame names its subscription once, before the event.
	frame := []byte(`{"action":"event","sid":"wsm-3","event":{"id":"x","subseq":"1","data":{"seq":5,"sched":7,"job":"job-1"}}}`)
	sid, next, ok := field(frame, 0, "sid")
	if !ok || string(sid) != "wsm-3" {
		t.Fatalf("sid = %q, %v", sid, ok)
	}
	n := 0
	scanEntries(frame[next:], false, func(e entry) {
		n++
		if e.seq != 5 || e.sched != 7 || string(e.job) != "job-1" {
			t.Errorf("frame entry = %+v", e)
		}
	})
	if n != 1 {
		t.Errorf("frame entries = %d, want 1", n)
	}
}

// TestLedger checks self time and coverage on a hand-made trace, and that
// the span export reads back to the same ledger.
func TestLedger(t *testing.T) {
	ms := int64(time.Millisecond)
	ts := &traceSet{paced: []seqRange{{1, 1}}, spans: []span{
		{kind: kPublish, start: 0, end: 10 * ms, seq: 1, key: -1, sub: -1},
		{kind: kGenLag, start: 0, end: 1 * ms, seq: 1, key: -1, sub: -1},
		{kind: kDoorHTTP, start: 2 * ms, end: 9 * ms, seq: 1, key: -1, sub: -1},
		{kind: kCoreFront, start: 3 * ms, end: 8 * ms, seq: 1, key: -1, sub: -1},
		{kind: kBackendPublish, start: 4 * ms, end: 7 * ms, seq: 1, key: -1, sub: -1},
		{kind: kDispatchFanout, start: 5 * ms, end: 6 * ms, seq: 1, key: -1, sub: -1},
		{kind: kTransportSend, start: 12 * ms, end: 20 * ms, seq: 1, key: 0, sub: -1},
		{kind: kReceiver, start: 14 * ms, end: 19 * ms, seq: 1, key: 0, sub: -1},
		{kind: kDelivery, start: 0, end: 15 * ms, seq: 1, key: 0, sub: 4},
	}}
	ts.derive(map[[2]int32][]int32{{1, 0}: {6}})
	ts.link()
	lg := ts.reduce()
	want := map[string]float64{
		"publish": 2000, "gen.lag": 1000, "door.http": 2000, "core.front": 2000,
		"backend.publish": 2000, "dispatch.fanout": 1000, "egress.wait": 6000,
		"transport.send": 3000, "receiver": 5000,
	}
	for name, w := range want {
		if got := lg.rows[name].p50; got != w {
			t.Errorf("%s self = %.0f us, want %.0f", name, got, w)
		}
	}
	// Delivery 0..15 ms: uncovered are 1..2 ms (publisher write) only.
	if got, wantPct := lg.unattributedPct, 100.0/15; math.Abs(got-wantPct) > 1e-9 {
		t.Errorf("unattributed = %.4f%%, want %.4f%%", got, wantPct)
	}
	var buf bytes.Buffer
	if err := ts.writeSpans(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lg2 := back.reduce()
	for name, row := range lg.rows {
		if lg2.rows[name] != row {
			t.Errorf("%s after export = %+v, want %+v", name, lg2.rows[name], row)
		}
	}
	if lg2.unattributedPct != lg.unattributedPct {
		t.Errorf("unattributed after export = %v, want %v", lg2.unattributedPct, lg.unattributedPct)
	}
}
