package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/mqtt"
	"repro/internal/obs"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/wspush"
)

// options configure one measured run of a workload.
type options struct {
	seed   int64
	paced  time.Duration
	traced bool
	// setups is how many times the broker is set up from scratch; the
	// set-up time reported is their median and the last one is measured.
	setups int
	inject injection
	// workDir holds the event log's temporary directories.
	workDir string
}

// subscription is one subscription of a run with its receiver-side
// accounting, which the receiver that owns it guards.
type subscription struct {
	subDef
	idx     int
	id      string   // broker-assigned subscription id
	got     []uint64 // bitset of sequence numbers received
	last    int      // highest sequence number received
	sampled bool     // delivery spans are kept for this subscription
}

// sink is one receiver's accounting lock and its paced-phase latency
// samples, per egress door and window, in nanoseconds.
type sink struct {
	mu  sync.Mutex
	lat [egressCount][windows][]int64
}

// recvHost is one loopback HTTP receiver host.
type recvHost struct {
	idx  int
	addr string // host:port
	srv  *http.Server
	sink sink
}

type publisher interface {
	publish(e *event) error
}

// run is one broker set-up with its receivers, publishers and
// accounting. All times are nanoseconds since origin.
type run struct {
	spec   *spec
	plan   *plan
	opt    options
	origin time.Time
	tr     *tracer

	subs  []*subscription
	byID  map[string]*subscription
	hosts []*recvHost
	ws    *sink
	mqttS *sink

	// Per plan block: the time its offsets count from, the deliveries
	// received and the latest receipt (burst rounds only).
	start      []atomic.Int64
	received   []atomic.Int64
	lastRecv   []atomic.Int64
	unexpected atomic.Int64
	corrupt    atomic.Int64
	dups       atomic.Int64
	outOfOrder [egressCount]atomic.Int64

	// Per publish, indexed by sequence number; each is written by the one
	// goroutine that sends that publish.
	sent, acked []int64
	refused     []bool

	broker  *core.Broker
	reg     *obs.Registry
	rec     *obs.Recorder
	client  *transport.HTTPClient
	traced  *tracedClient
	base    string
	dataDir string
	pubs    [doorCount]publisher
	closers []func()
	readers sync.WaitGroup
	closed  sync.Once
}

func (r *run) now() int64 { return int64(time.Since(r.origin)) }

// due is the time a publish was scheduled to be sent.
func (r *run) due(e *event) int64 { return r.start[e.block].Load() + int64(e.offset) }

// window is the paced-phase window a publish was scheduled in.
func (r *run) window(e *event) int {
	return min(windows-1, int(int64(e.offset)*windows/int64(r.opt.paced)))
}

// newRun starts the receivers for a workload; boot and subscribe follow.
func newRun(s *spec, p *plan, opt options, origin time.Time) (*run, error) {
	r := &run{spec: s, plan: p, opt: opt, origin: origin, byID: map[string]*subscription{}, ws: &sink{}, mqttS: &sink{}}
	if opt.traced {
		r.tr = newTracer(origin, opt.inject)
	}
	n := len(p.events) + 1
	r.sent, r.acked, r.refused = make([]int64, n), make([]int64, n), make([]bool, n)
	nb := len(p.blocks)
	r.start, r.received, r.lastRecv = make([]atomic.Int64, nb), make([]atomic.Int64, nb), make([]atomic.Int64, nb)
	defs := s.subs()
	// Delivery spans for every subscription, or for every k-th one when
	// that keeps a traced run near 100 000 of them.
	exp, _, _ := p.expected(defs)
	every := max(1, exp[phasePaced]/100_000)
	for i, d := range defs {
		r.subs = append(r.subs, &subscription{subDef: d, idx: i, got: make([]uint64, n/64+1), sampled: i%every == 0})
	}
	for i := 0; i < s.hosts; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		h := &recvHost{idx: i, addr: ln.Addr().String()}
		h.srv = &http.Server{Handler: r.hostHandler(h)}
		r.hosts = append(r.hosts, h)
		go func() { _ = h.srv.Serve(ln) }()
		r.closers = append(r.closers, func() { _ = h.srv.Close() })
	}
	return r, nil
}

// boot builds the broker exactly as cmd/wsmessenger does with its
// default flags, and mounts its doors the same way. A traced run swaps
// in the wrapping backend, client and handlers and samples every
// message.
func (r *run) boot() error {
	r.reg = obs.NewRegistry()
	var rc obs.RecorderConfig
	if r.tr != nil {
		rc.SampleEvery = 1
	}
	r.rec = obs.NewRecorder(r.reg, "broker", rc)
	r.client = &transport.HTTPClient{
		HC: transport.NewPooledHTTPClient(transport.PoolConfig{
			Timeout: 15 * time.Second,
		}),
		Obs: obs.NewTransportMetrics(r.reg, "broker"),
	}
	r.closers = append(r.closers, r.client.HC.CloseIdleConnections)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.base = "http://" + ln.Addr().String()
	cfg := core.Config{
		Address:            r.base + "/",
		ManagerAddress:     r.base + "/manage",
		Client:             r.client,
		QueueDepth:         256,
		BatchMax:           64,
		BatchWindow:        2 * time.Millisecond,
		MaxInflightPerHost: 4,
		AdaptiveWindow:     true,
		Obs:                r.rec,
	}
	if r.spec.durable {
		if r.dataDir, err = os.MkdirTemp(r.opt.workDir, "eventlog-"); err != nil {
			ln.Close()
			return err
		}
		cfg.DataDir = r.dataDir
	}
	if r.tr != nil {
		hosts := map[string]int32{}
		for _, h := range r.hosts {
			hosts[h.addr] = int32(h.idx)
		}
		r.traced = &tracedClient{inner: r.client, t: r.tr, hosts: hosts}
		cfg.Client = r.traced
		cfg.Backend = &tracedBackend{inner: backend.NewMemory(), t: r.tr}
	}
	if r.broker, err = core.New(cfg); err != nil {
		ln.Close()
		return err
	}

	mux := http.NewServeMux()
	frontTM := obs.NewTransportMetrics(r.reg, "front")
	var frontH transport.Handler = r.broker.FrontHandler()
	if r.tr != nil {
		frontH = r.tr.frontSpan(frontH)
	}
	var front http.Handler = transport.NewHTTPHandlerObs(frontH, frontTM)
	var ce http.Handler = r.broker.CEHandler()
	if r.tr != nil {
		front = r.tr.httpSpan(kDoorHTTP, front)
		ce = r.tr.httpSpan(kDoorCE, ce)
	}
	mux.Handle("/", front)
	mux.Handle("/manage", transport.NewHTTPHandlerObs(r.broker.ManagerHandler(), frontTM))
	mux.Handle("/metrics", r.reg.Handler())
	mux.Handle("/ce", ce)
	mux.Handle("/ws", r.broker.WSHandler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	r.closers = append(r.closers, func() { _ = srv.Close() })

	if r.spec.doorFor(0) == doorMQTT {
		mln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = r.broker.ServeMQTT(mln) }()
		r.closers = append(r.closers, func() { _ = mln.Close() })
		return r.connectMQTT(mln.Addr().String())
	}
	return nil
}

// newPublisherClient is one HTTP publisher connection into the broker.
func newPublisherClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

type httpPublisher struct {
	hc         *http.Client
	url, ctype string
}

func (p *httpPublisher) publish(e *event) error {
	resp, err := p.hc.Post(p.url, p.ctype, bytes.NewReader(e.body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("publish %d refused: HTTP %d", e.seq, resp.StatusCode)
	}
	return nil
}

type mqttPublisher struct{ c *mqtt.Client }

func (p *mqttPublisher) publish(e *event) error {
	return p.c.Publish(mqttTopic, e.body, 1, false)
}

// subscribe registers every subscription through its real door and opens
// the publisher connections.
func (r *run) subscribe(ctx context.Context) error {
	setup := &transport.HTTPClient{HC: newPublisherClient()}
	defer setup.HC.CloseIdleConnections()
	front := r.base + "/"
	var wsSubs []*subscription
	for _, s := range r.subs {
		url := ""
		switch {
		case s.form == formWSN13:
			// WSN 1.3 entries name their subscription, so all of a host's
			// WSN 1.3 subscriptions share its address and their
			// deliveries coalesce into multi-message envelopes.
			url = "http://" + r.hosts[s.host].addr + "/notify"
		case s.host >= 0:
			url = "http://" + r.hosts[s.host].addr + "/s/" + strconv.Itoa(s.idx)
		}
		clark := r.plan.paths[s.topic].String()
		var err error
		switch s.form {
		case formWSN13, formWSN10:
			v := wsnt.V1_3
			if s.form == formWSN10 {
				v = wsnt.V1_0
			}
			req := &wsnt.SubscribeRequest{
				ConsumerReference: wsa.NewEPR(v.WSAVersion(), url),
				TopicDialect:      topics.DialectConcrete,
			}
			r.topicFilter(s, req)
			var h *wsnt.Handle
			if h, err = (&wsnt.Subscriber{Client: setup, Version: v}).Subscribe(ctx, front, req); err == nil {
				s.id = h.ID
			}
		case formWSE04, formWSE08:
			v := wse.V200401
			if s.form == formWSE08 {
				v = wse.V200408
			}
			var h *wse.Handle
			if h, err = (&wse.Subscriber{Client: setup, Version: v}).Subscribe(ctx, front,
				&wse.SubscribeRequest{NotifyTo: wsa.NewEPR(v.WSAVersion(), url)}); err == nil {
				s.id = h.ID
			}
		case formCEStructured, formCEBinary:
			mode := "structured"
			if s.form == formCEBinary {
				mode = "binary"
			}
			s.id, err = ceSubscribe(ctx, setup.HC, r.base+"/ce", url, clark, mode)
		case formWS:
			// The WebSocket door subscribes over the socket, below.
			wsSubs = append(wsSubs, s)
			continue
		case formMQTT:
			continue // granted by connectMQTT
		}
		if err != nil {
			return fmt.Errorf("subscribe %d (form %d): %w", s.idx, s.form, err)
		}
		r.byID[s.id] = s
	}
	if len(wsSubs) > 0 {
		if err := r.connectWS(ctx, wsSubs); err != nil {
			return err
		}
	}
	soapPub := &httpPublisher{hc: newPublisherClient(), url: front, ctype: "text/xml; charset=utf-8"}
	cePub := &httpPublisher{hc: newPublisherClient(), url: r.base + "/ce", ctype: "application/cloudevents+json"}
	r.pubs[doorSOAP], r.pubs[doorCE] = soapPub, cePub
	r.closers = append(r.closers, soapPub.hc.CloseIdleConnections, cePub.hc.CloseIdleConnections)
	return nil
}

// topicFilter sets a WSN subscription's topic and, when it filters on
// the user field, its content filter: on SOAP-published topics an XPath
// over the JobEvent fields, on CloudEvents-published topics one over the
// bridge form.
func (r *run) topicFilter(s *subscription, req *wsnt.SubscribeRequest) {
	path := r.plan.paths[s.topic]
	req.TopicExpression = "t:" + strings.Join(path.Segments, "/")
	req.TopicNS = map[string]string{"t": path.Namespace}
	if s.user < 0 {
		return
	}
	// Descendant paths, the form every filter in the repository's own
	// tests uses: the broker evaluates a content filter from the root of
	// the document the payload sits in, which for a SOAP publish is the
	// whole envelope, so an absolute /w:JobEvent path never matches one.
	user := fmt.Sprintf("user%02d", s.user)
	req.ContentDialect = "http://www.w3.org/TR/1999/REC-xpath-19991116"
	if r.spec.doorFor(s.topic) == doorSOAP {
		req.ContentExpr = "//w:JobEvent/w:user='" + user + "'"
		req.ContentNS = map[string]string{"w": workload.NS}
	} else {
		req.ContentExpr = "//c:Event/c:Extension[@name='jobuser']='" + user + "'"
		req.ContentNS = map[string]string{"c": "urn:ws-messenger:cloudevents"}
	}
}

func ceSubscribe(ctx context.Context, hc *http.Client, ceURL, sinkURL, topic, mode string) (string, error) {
	body, _ := json.Marshal(map[string]string{"sink": sinkURL, "topic": topic, "mode": mode})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ceURL, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated || out.ID == "" {
		return "", fmt.Errorf("ce subscribe: HTTP %d %s", resp.StatusCode, out.Error)
	}
	return out.ID, nil
}

// connectWS opens the WebSocket session, subscribes each WS subscription
// over it and starts the reader that accounts its events.
func (r *run) connectWS(ctx context.Context, subs []*subscription) error {
	c, err := wspush.Dial(ctx, r.base+"/ws")
	if err != nil {
		return err
	}
	r.closers = append(r.closers, func() { _ = c.Close() })
	for _, s := range subs {
		req, _ := json.Marshal(map[string]string{"action": "subscribe", "topic": r.plan.paths[s.topic].String()})
		if err := c.WriteMessage(wspush.OpText, req); err != nil {
			return err
		}
		for s.id == "" {
			op, p, err := c.ReadMessage()
			if err != nil {
				return err
			}
			if op != wspush.OpText {
				continue
			}
			var rep struct{ Action, SID, Error string }
			if err := json.Unmarshal(p, &rep); err != nil {
				return err
			}
			if rep.Action != "subscribed" {
				return fmt.Errorf("ws subscribe: %s %s", rep.Action, rep.Error)
			}
			s.id = rep.SID
		}
		r.byID[s.id] = s
	}
	r.readers.Add(1)
	go func() {
		defer r.readers.Done()
		for {
			op, p, err := c.ReadMessage()
			if err != nil {
				return
			}
			switch op {
			case wspush.OpPing:
				_ = c.WritePong(p)
			case wspush.OpText:
				recv := r.now()
				sid, next, ok := field(p, 0, "sid")
				s := r.byID[string(sid)]
				if !ok || s == nil || s.form != formWS {
					r.unexpected.Add(1)
					continue
				}
				r.ws.mu.Lock()
				r.corrupt.Add(int64(scanEntries(p[next:], false, func(e entry) { r.account(r.ws, s, e, recv, keyWS) })))
				r.ws.mu.Unlock()
			}
		}
	}()
	return nil
}

// connectMQTT opens the one MQTT connection: it holds the 16 overlapping
// QoS 1 filters and is also the publisher. Its messages do not say which
// filter they matched, so each receipt is credited to the first MQTT
// subscription that still lacks that publish.
func (r *run) connectMQTT(addr string) error {
	c, _, err := mqtt.Dial(addr, mqtt.ConnectOptions{ClientID: "perfbench", CleanSession: true})
	if err != nil {
		return err
	}
	r.closers = append(r.closers, func() { _ = c.Close() })
	var pool []*subscription
	for _, s := range r.subs {
		if s.form == formMQTT {
			pool = append(pool, s)
		}
	}
	filters := overlappingFilters(mqttTopic, len(pool))
	if _, err := c.Subscribe(filters...); err != nil {
		return err
	}
	r.pubs[doorMQTT] = &mqttPublisher{c: c}
	r.readers.Add(1)
	go func() {
		defer r.readers.Done()
		for m := range c.Messages() {
			recv := r.now()
			r.mqttS.mu.Lock()
			r.corrupt.Add(int64(scanEntries(m.Payload, false, func(e entry) {
				s := pool[0]
				if e.seq >= 1 && e.seq < len(r.sent) {
					for _, cand := range pool {
						if cand.got[e.seq/64]&(1<<(e.seq%64)) == 0 {
							s = cand
							break
						}
					}
				}
				r.account(r.mqttS, s, e, recv, keyMQTT)
			})))
			r.mqttS.mu.Unlock()
		}
	}()
	return nil
}

// overlappingFilters returns n distinct MQTT filters that all match
// topic, substituting '+' for interior levels, one filter per bit mask.
func overlappingFilters(topic string, n int) []mqtt.TopicFilterQoS {
	levels := strings.Split(topic, "/")
	fs := make([]mqtt.TopicFilterQoS, 0, n)
	for mask := 0; mask < 1<<(len(levels)-1) && len(fs) < n; mask++ {
		f := append([]string(nil), levels...)
		for bit := 0; bit < len(levels)-1; bit++ {
			if mask&(1<<bit) != 0 {
				f[1+bit] = "+"
			}
		}
		fs = append(fs, mqtt.TopicFilterQoS{Filter: strings.Join(f, "/"), QoS: 1})
	}
	return fs
}

// bodies recycles the receivers' request buffers: with io.ReadAll's
// growing allocations the receivers of fanout-soap spent about a sixth
// of the process's CPU reading bodies and collecting the garbage, time
// the broker under test then competed with.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// hostHandler is a receiver host: it stamps the receipt, charges the
// workload's service time and accounts every entry in the body.
// Subscription-specific paths (/s/<n>) name their subscription; the
// shared /notify path relies on the SubscriptionId in each entry.
func (r *run) hostHandler(h *recvHost) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		buf := bodies.Get().(*bytes.Buffer)
		defer bodies.Put(buf)
		buf.Reset()
		if req.ContentLength > 0 {
			buf.Grow(int(req.ContentLength))
		}
		_, err := buf.ReadFrom(req.Body)
		body := buf.Bytes()
		recv := r.now()
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if d := r.spec.hostDelay + r.opt.inject.receiver; d > 0 {
			time.Sleep(d)
		}
		var fixed *subscription
		if rest, ok := strings.CutPrefix(req.URL.Path, "/s/"); ok {
			if i, err := strconv.Atoi(rest); err == nil && i >= 0 && i < len(r.subs) {
				fixed = r.subs[i]
			}
		}
		first := int32(0)
		h.sink.mu.Lock()
		bad := scanEntries(body, fixed == nil, func(e entry) {
			if first == 0 {
				first = int32(e.seq)
			}
			s := fixed
			if s == nil {
				if s = r.byID[string(e.sid)]; s == nil {
					r.unexpected.Add(1)
					return
				}
			}
			r.account(&h.sink, s, e, recv, int32(h.idx))
		})
		h.sink.mu.Unlock()
		r.corrupt.Add(int64(bad))
		w.WriteHeader(http.StatusAccepted)
		if r.tr != nil {
			r.tr.record(kReceiver, start, r.now(), first, int32(h.idx), -1)
		}
	})
}

// account checks one receipt against the oracle and records it. The
// caller holds the lock of the sink that owns the subscription.
func (r *run) account(k *sink, s *subscription, e entry, recv int64, key int32) {
	if e.seq < 1 || e.seq >= len(r.sent) {
		r.unexpected.Add(1)
		return
	}
	ev := &r.plan.events[e.seq-1]
	if e.sched != int64(ev.offset) || string(e.job) != ev.job {
		r.corrupt.Add(1)
		return
	}
	if !s.wants(ev) {
		r.unexpected.Add(1)
		return
	}
	word, bit := e.seq/64, uint64(1)<<(e.seq%64)
	if s.got[word]&bit != 0 {
		r.dups.Add(1)
		return
	}
	s.got[word] |= bit
	// MQTT receipts do not say which of the overlapping filters they
	// matched, so per-subscription order is not observable there.
	if e.seq < s.last && s.form != formMQTT {
		r.outOfOrder[s.form.egress()].Add(1)
	} else {
		s.last = max(s.last, e.seq)
	}
	sched := r.due(ev)
	switch {
	case ev.phase == phasePaced:
		eg, w := s.form.egress(), r.window(ev)
		k.lat[eg][w] = append(k.lat[eg][w], recv-sched)
	case ev.phase >= phaseBurst:
		last := &r.lastRecv[ev.block]
		for {
			cur := last.Load()
			if recv <= cur || last.CompareAndSwap(cur, recv) {
				break
			}
		}
	}
	r.received[ev.block].Add(1)
	if r.tr != nil && s.sampled {
		r.tr.record(kDelivery, sched, recv, int32(e.seq), key, int32(s.idx))
	}
}

// drive runs one plan block's open-loop schedule on every publisher
// connection and returns when every publish has been acknowledged or
// refused. Each connection sends in schedule order, one publish at a
// time, so the broker ingests each connection's publishes in sequence
// order and per-subscription order is checkable. Every timing starts from
// the scheduled send time, so a stall shows as latency of the publishes
// queued behind it.
func (r *run) drive(blk int) {
	b := &r.plan.blocks[blk]
	start := r.now() + int64(2*time.Millisecond) - int64(b.begin)
	r.start[blk].Store(start)
	var wg sync.WaitGroup
	for d := door(0); d < doorCount; d++ {
		evs := b.events[d]
		if len(evs) == 0 {
			continue
		}
		wg.Add(1)
		go func(pub publisher, evs []*event) {
			defer wg.Done()
			r.send(start, pub, evs)
		}(r.pubs[d], evs)
	}
	wg.Wait()
}

func (r *run) send(start int64, pub publisher, evs []*event) {
	for _, e := range evs {
		due := start + int64(e.offset)
		if wait := due - r.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		sent := r.now()
		err := pub.publish(e)
		ack := r.now()
		r.sent[e.seq], r.acked[e.seq], r.refused[e.seq] = sent, ack, err != nil
		if err != nil {
			log.Printf("perfbench: %v", err)
		}
		if r.tr != nil {
			r.tr.record(kPublish, due, ack, int32(e.seq), -1, -1)
			r.tr.record(kGenLag, due, sent, int32(e.seq), -1, -1)
		}
	}
}

// quiesce waits until a plan block's expected deliveries have all
// arrived, or until none has arrived for three seconds.
func (r *run) quiesce(blk, want int) {
	last, since := r.received[blk].Load(), time.Now()
	for {
		n := r.received[blk].Load()
		if n >= int64(want) {
			return
		}
		if n != last {
			last, since = n, time.Now()
		} else if time.Since(since) > 3*time.Second {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// conserved polls the dispatch counters until the conservation law holds
// (Matched == Delivered + Dropped + Failed + DeadLettered) or five
// seconds pass; acknowledgements may still be in flight at quiescence.
func (r *run) conserved() (dispatch.Stats, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.broker.DispatchStats()
		if st.Matched == st.Delivered+st.Dropped+st.Failed+st.DeadLettered {
			return st, true
		}
		if time.Now().After(deadline) {
			return st, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close tears the run down once: the broker, then every connection and
// listener in reverse order of opening; it waits for the session readers.
func (r *run) close() {
	r.closed.Do(func() {
		if r.broker != nil {
			r.broker.Shutdown()
		}
		for i := len(r.closers) - 1; i >= 0; i-- {
			r.closers[i]()
		}
		r.readers.Wait()
		if r.dataDir != "" {
			_ = os.RemoveAll(r.dataDir)
		}
	})
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the live heap (what the last GC marked live),
// cumulative allocated bytes and GC cycles without stopping the world.
func runtimeSample() (live, allocs, gcs uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}
