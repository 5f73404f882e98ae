package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/cloudevents"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/xmldom"
)

// Spans are recorded from outside the program, by wrapping the public
// entry points the broker is built from: the door handlers, the backend
// it publishes into (and whose fan-out callback runs the dispatch
// engine), the client it delivers through, and the receivers. Nothing
// inside the program changes.

// kind names a span; the names are the rows of the per-layer ledger.
type kind uint8

const (
	kPublish        kind = iota // generator: scheduled send → publisher ack
	kGenLag                     // generator: scheduled → actual send
	kDoorHTTP                   // http.Handler around the SOAP door
	kCoreFront                  // transport.Handler around FrontHandler
	kDoorCE                     // http.Handler around CEHandler
	kBackendPublish             // backend.Backend.Publish: log append done → fan-out done
	kDispatchFanout             // the broker's fan-out callback: engine.Dispatch
	kEgressWait                 // fan-out done → start of the send that carried a delivery
	kTransportSend              // one wire send through the broker's client
	kReceiver                   // one receiver request, service time included
	kSessionWS                  // fan-out done → WebSocket client receipt
	kSessionMQTT                // fan-out done → MQTT client receipt
	kDelivery                   // scheduled send → receipt, one (publish, subscription) pair
	kindCount
)

var kindNames = [kindCount]string{
	"publish", "gen.lag", "door.http", "core.front", "door.ce",
	"backend.publish", "dispatch.fanout", "egress.wait", "transport.send",
	"receiver", "session.ws", "session.mqtt", "delivery",
}

func kindByName(name string) (kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return kind(k), true
		}
	}
	return 0, false
}

// parentKinds is the static span hierarchy; a span's parent is the
// innermost span of one of these kinds that shares its sequence number
// (and, for receiver spans, its host) and contains it.
var parentKinds = [kindCount][]kind{
	kGenLag:         {kPublish},
	kDoorHTTP:       {kPublish},
	kDoorCE:         {kPublish},
	kCoreFront:      {kDoorHTTP},
	kBackendPublish: {kCoreFront, kDoorCE},
	kDispatchFanout: {kBackendPublish},
	kReceiver:       {kTransportSend},
}

// span is one recorded interval. Times are nanoseconds since the run's
// origin. key is the receiver host for egress, transport, receiver and
// HTTP delivery spans (keyWS or keyMQTT for session deliveries); sub is
// the subscription of delivery and session spans.
type span struct {
	kind       kind
	start, end int64
	seq        int32
	key        int32
	sub        int32
	parent     int32 // index into the span list, -1 for none
}

// injection adds a fixed sleep inside one wrapper, for the attribution
// self-test: the added time must land in that layer's self-time row.
type injection struct {
	backend, send, receiver time.Duration
}

// tracer holds the spans of one traced run in memory until the run ends.
type tracer struct {
	origin time.Time
	inject injection

	mu    sync.Mutex
	spans []span
	// sends maps (seq, host) to the transport sends that carried it.
	sends map[[2]int32][]int32
}

func newTracer(origin time.Time, inj injection) *tracer {
	return &tracer{origin: origin, inject: inj, sends: map[[2]int32][]int32{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) record(k kind, start, end int64, seq, key, sub int32) {
	if t == nil || seq <= 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: k, start: start, end: end, seq: seq, key: key, sub: sub, parent: -1})
	t.mu.Unlock()
}

// recordSend keeps a transport send and indexes it by every seq it
// carried; its own seq is the first one.
func (t *tracer) recordSend(start, end int64, host int32, seqs []int32) {
	if len(seqs) == 0 {
		return
	}
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kTransportSend, start: start, end: end, seq: seqs[0], key: host, sub: -1, parent: -1})
	for _, s := range seqs {
		k := [2]int32{s, host}
		t.sends[k] = append(t.sends[k], idx)
	}
	t.mu.Unlock()
}

// seqKey carries a request's sequence number from the HTTP door wrapper
// to the transport.Handler wrapper inside it.
type seqKey struct{}

// payloadSeq reads the stamped sequence number from a publish payload:
// a JobEvent element, or the CloudEvents bridge form whose data is JSON.
func payloadSeq(el *xmldom.Element) int32 {
	if el == nil {
		return 0
	}
	if el.Name == cloudevents.EventName {
		if d := el.Child(xmldom.N(cloudevents.NS, "Data")); d != nil {
			if s := seqsIn([]byte(d.Text())); len(s) > 0 {
				return s[0]
			}
		}
		return 0
	}
	n, _ := strconv.Atoi(el.ChildText(xmldom.N(workload.NS, "seq")))
	return int32(n)
}

// httpSpan wraps a door's http.Handler. It reads the body first to learn
// the publish's sequence number, then replays it to the door.
func (t *tracer) httpSpan(k kind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		var seq int32
		if s := seqsIn(body); len(s) > 0 {
			seq = s[0]
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		r = r.WithContext(context.WithValue(r.Context(), seqKey{}, seq))
		h.ServeHTTP(w, r)
		t.record(k, start, t.now(), seq, -1, -1)
	})
}

// frontSpan wraps the broker's transport.Handler front door.
func (t *tracer) frontSpan(h transport.Handler) transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		start := t.now()
		resp, err := h.ServeSOAP(ctx, env)
		seq, _ := ctx.Value(seqKey{}).(int32)
		t.record(kCoreFront, start, t.now(), seq, -1, -1)
		return resp, err
	})
}

// tracedBackend wraps the broker's backend. The broker calls Publish
// only after the log append (and its fsync) is done, and the memory
// backend runs the fan-out callback synchronously inside it.
type tracedBackend struct {
	inner backend.Backend
	t     *tracer
}

func (b *tracedBackend) Name() string { return b.inner.Name() }
func (b *tracedBackend) Close() error { return b.inner.Close() }

func (b *tracedBackend) Publish(msg backend.Message) error {
	start := b.t.now()
	if d := b.t.inject.backend; d > 0 {
		time.Sleep(d)
	}
	err := b.inner.Publish(msg)
	b.t.record(kBackendPublish, start, b.t.now(), payloadSeq(msg.Payload), -1, -1)
	return err
}

func (b *tracedBackend) Subscribe(fn func(backend.Message)) (func(), error) {
	return b.inner.Subscribe(func(msg backend.Message) {
		start := b.t.now()
		fn(msg)
		b.t.record(kDispatchFanout, start, b.t.now(), payloadSeq(msg.Payload), -1, -1)
	})
}

// tracedClient wraps the broker's delivery client and keeps all three of
// its interfaces, so the broker takes the same raw-bytes and CloudEvents
// paths it takes with the bare client.
type tracedClient struct {
	inner interface {
		transport.Client
		transport.BytesClient
		transport.RawSender
	}
	t     *tracer
	hosts map[string]int32 // "127.0.0.1:port" → receiver host index

	mu     sync.Mutex
	sends  uint64
	bytes  uint64
	errors uint64
}

func (c *tracedClient) hostOf(addr string) int32 {
	rest := strings.TrimPrefix(addr, "http://")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if h, ok := c.hosts[rest]; ok {
		return h
	}
	return -1
}

func (c *tracedClient) observe(addr string, body []byte, send func() error) error {
	start := c.t.now()
	if d := c.t.inject.send; d > 0 {
		time.Sleep(d)
	}
	err := send()
	end := c.t.now()
	c.t.recordSend(start, end, c.hostOf(addr), seqsIn(body))
	c.mu.Lock()
	c.sends++
	c.bytes += uint64(len(body))
	if err != nil {
		c.errors++
	}
	c.mu.Unlock()
	return err
}

// Call and Send, the envelope paths, carry no publish on these workloads
// (the broker sends end notices through them), so they are not timed.
func (c *tracedClient) Call(ctx context.Context, addr string, req *soap.Envelope) (*soap.Envelope, error) {
	return c.inner.Call(ctx, addr, req)
}

func (c *tracedClient) Send(ctx context.Context, addr string, req *soap.Envelope) error {
	return c.inner.Send(ctx, addr, req)
}

func (c *tracedClient) SendBytes(ctx context.Context, addr, contentType string, body []byte) error {
	return c.observe(addr, body, func() error { return c.inner.SendBytes(ctx, addr, contentType, body) })
}

func (c *tracedClient) SendRaw(ctx context.Context, addr, contentType string, header map[string]string, body []byte) error {
	return c.observe(addr, body, func() error { return c.inner.SendRaw(ctx, addr, contentType, header, body) })
}

func (c *tracedClient) counts() (sends, bytes, errors uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends, c.bytes, c.errors
}
