package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/cloudevents"
	"repro/internal/mqtt"
	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/workload"
	"repro/internal/wsa"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

// door is the front door a publish enters through.
type door int

const (
	doorSOAP door = iota // WSN 1.3 Notify over HTTP
	doorCE               // CloudEvents structured POST /ce
	doorMQTT             // MQTT 3.1.1 PUBLISH at QoS 1
	doorCount
)

// form is the way a subscription was made and is delivered to.
type form int

const (
	formWSN13 form = iota
	formWSN10
	formWSE04
	formWSE08
	formCEStructured
	formCEBinary
	formWS   // WebSocket session subscription
	formMQTT // MQTT session filter at QoS 1
)

// egress groups delivery forms by the door they leave through.
type egress int

const (
	egressSOAP egress = iota
	egressCE
	egressWS
	egressMQTT
	egressCount
)

var egressNames = [egressCount]string{"soap", "ce", "ws", "mqtt"}

func (f form) egress() egress {
	switch f {
	case formCEStructured, formCEBinary:
		return egressCE
	case formWS:
		return egressWS
	case formMQTT:
		return egressMQTT
	}
	return egressSOAP
}

// Run phases. Timings and percentiles come from the paced phase; the
// burst rounds give throughput (their median); the warm-up belongs to
// set-up. A run interleaves them: the paced phase is cut into as many
// slices as the workload has burst rounds, and each slice is followed by
// one round, so a few seconds of a slower host land on a slice or a
// round, not on every round at once.
const (
	phaseWarm = iota
	phasePaced
	phaseBurst // first of a workload's burst rounds

	maxRounds  = 15
	phaseCount = phaseBurst + maxRounds
)

// spec defines one workload: its subscriptions, its traffic and the
// receivers it delivers to. The rate is part of the definition, fixed
// once at about a quarter of the burst throughput measured at the commit
// that introduced the benchmark, so every later commit is measured at the
// same offered load. At about half of it, a busy loop taking one of the
// two cores raised delivery_p90_ms by 65-165 %; at a quarter, by 15-25 %,
// so a noisy neighbour on a shared host moves the tails far less.
// fanout-soap runs at about a tenth: at 40/s a busy loop on one core 40 %
// of the time raised its publish_ack_p50_ms by 26 %, at 20/s by 5 %.
type spec struct {
	name string
	why  string
	// rate is the paced publish rate, all publisher connections together.
	rate float64
	// burst is the number of back-to-back publishes in each of rounds
	// burst rounds. What any one subscription receives of a round stays
	// below the broker's per-subscription QueueDepth (256), so the design
	// itself never drops.
	burst, rounds int
	// warm is the warm-up length, paced at rate.
	warm time.Duration
	// size and topics configure the payload generator.
	size   workload.Size
	topics int
	// hosts is the number of loopback receiver hosts; hostDelay the
	// service time each charges per request.
	hosts     int
	hostDelay time.Duration
	// durable turns on the event log (batch durability, the -data-dir
	// default) in a temporary directory.
	durable bool
	// doorFor maps a generator topic index to the publishing door.
	doorFor func(topic int) door
	// subs lists the subscriptions to make.
	subs func() []subDef
}

// subDef is one subscription of a workload. topic and user are the
// oracle's predicate: -1 matches anything.
type subDef struct {
	form  form
	topic int
	user  int
	host  int // receiver host; -1 for session subscriptions
}

// wants is the reference oracle: whether a subscription must receive an
// event, from the generated fields alone.
func (s subDef) wants(e *event) bool {
	return (s.topic < 0 || s.topic == e.topic) && (s.user < 0 || s.user == e.user)
}

// mqttTopic is the session-doors topic, five levels deep so the 16
// overlapping '+' filters of B18 all match it.
const mqttTopic = "bench/grid/jobs/eu/done"

var specs = []*spec{
	{
		name:      "fanout-soap",
		why:       "egress: 1000 WSN 1.3 subscribers on one topic over 20 slow hosts; render-once, dispatch, destwriter and transport do the work",
		rate:      20,
		burst:     200,
		rounds:    5,
		warm:      500 * time.Millisecond,
		size:      workload.Medium,
		topics:    1,
		hosts:     20,
		hostDelay: time.Millisecond,
		doorFor:   func(int) door { return doorSOAP },
		subs: func() []subDef {
			out := make([]subDef, 1000)
			for i := range out {
				out[i] = subDef{form: formWSN13, topic: 0, user: -1, host: i % 20}
			}
			return out
		},
	},
	{
		name:    "ingest-durable",
		why:     "ingress: fsynced log, SOAP and CloudEvents doors, 400 XPath filters passing about 2% each; door, log and filter dominate the ack",
		rate:    100,
		burst:   600, // a subscription gets about 2% of them
		rounds:  5,
		warm:    500 * time.Millisecond,
		size:    workload.Medium,
		topics:  8,
		hosts:   4,
		durable: true,
		doorFor: func(topic int) door {
			if topic < 4 {
				return doorSOAP
			}
			return doorCE
		},
		subs: func() []subDef {
			out := make([]subDef, 0, 400)
			for t := 0; t < 8; t++ {
				for u := 0; u < 50; u++ {
					out = append(out, subDef{form: formWSN13, topic: t, user: u, host: len(out) % 4})
				}
			}
			return out
		},
	},
	{
		name:    "session-doors",
		why:     "sessions: MQTT QoS 1 publishes to MQTT, WebSocket and six HTTP delivery forms; in-process session paths and per-form renders",
		rate:    120,
		burst:   200,
		rounds:  15,
		warm:    500 * time.Millisecond,
		size:    workload.Small,
		topics:  1,
		hosts:   4,
		doorFor: func(int) door { return doorMQTT },
		subs: func() []subDef {
			out := make([]subDef, 0, 80)
			for i := 0; i < 16; i++ {
				out = append(out, subDef{form: formMQTT, topic: 0, user: -1, host: -1})
			}
			for i := 0; i < 16; i++ {
				out = append(out, subDef{form: formWS, topic: 0, user: -1, host: -1})
			}
			forms := []form{formWSE04, formWSE08, formWSN10, formWSN13, formCEStructured, formCEBinary}
			for i := 0; i < 48; i++ {
				out = append(out, subDef{form: forms[i%len(forms)], topic: 0, user: -1, host: i % 4})
			}
			return out
		},
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// event is one generated publish. Its body is rendered before any timing
// starts; its schedule is an offset from the start of its phase.
type event struct {
	seq    int
	phase  int
	block  int // index of the plan block it is sent in
	offset time.Duration
	door   door
	topic  int
	user   int
	job    string
	body   []byte
}

// block is one stretch of a run's schedule, driven and drained before
// the next: the warm-up, one slice of the paced phase or one burst round.
type block struct {
	phase int
	// begin is the scheduled offset of the block's first publish; paced
	// offsets run on across slices, so a slice's schedule starts there.
	begin time.Duration
	// events lists, per door, the block's events in schedule order.
	events [doorCount][]*event
}

// plan is everything a run publishes, generated from the seed alone.
// Events are generated, and numbered, in the order the run sends them.
type plan struct {
	events []event
	paths  []topics.Path // the topic each generator topic index is published on
	blocks []block       // warm-up, then each paced slice and its burst round
}

// newPlan generates the warm-up, paced and burst events for a workload:
// payload fields from internal/workload with the seed, then the
// benchmark's sequence number and scheduled send offset stamped in.
func newPlan(s *spec, seed int64, paced time.Duration) *plan {
	g := workload.New(workload.Config{Seed: seed, Size: s.size, TopicFanout: s.topics})
	generated := g.Topics()
	p := &plan{paths: g.Topics()}
	for i := range p.paths {
		if s.doorFor(i) == doorMQTT {
			p.paths[i] = mqttPath()
		}
	}
	warm := int(math.Ceil(s.rate * s.warm.Seconds()))
	pacedN := int(math.Round(s.rate * paced.Seconds()))
	period := time.Duration(float64(time.Second) / s.rate)
	// Each block is a phase and the range of schedule indices it sends;
	// a burst round sends all of its publishes at offset 0.
	type stretch struct{ phase, lo, hi int }
	stretches := []stretch{{phaseWarm, 0, warm}}
	for j := 0; j < s.rounds; j++ {
		stretches = append(stretches, stretch{phasePaced, j * pacedN / s.rounds, (j + 1) * pacedN / s.rounds},
			stretch{phaseBurst + j, 0, s.burst})
	}
	p.events = make([]event, 0, warm+pacedN+s.rounds*s.burst)
	p.blocks = make([]block, len(stretches))
	for b, sp := range stretches {
		p.blocks[b] = block{phase: sp.phase}
		if sp.phase < phaseBurst {
			p.blocks[b].begin = time.Duration(sp.lo) * period
		}
		for i := sp.lo; i < sp.hi; i++ {
			ge := g.Next()
			e := event{seq: len(p.events) + 1, phase: sp.phase, block: b, topic: topicIndex(generated, ge.Topic)}
			if sp.phase < phaseBurst {
				e.offset = time.Duration(i) * period
			}
			e.door = s.doorFor(e.topic)
			e.job = ge.Payload.ChildText(xmldom.N(workload.NS, "job"))
			if u := ge.Payload.ChildText(xmldom.N(workload.NS, "user")); len(u) > 4 {
				e.user, _ = strconv.Atoi(u[4:])
			} else {
				e.user = -1
			}
			e.body = render(&e, ge, p.paths[e.topic])
			p.events = append(p.events, e)
		}
	}
	for i := range p.events {
		e := &p.events[i]
		b := &p.blocks[e.block]
		b.events[e.door] = append(b.events[e.door], e)
	}
	return p
}

func topicIndex(paths []topics.Path, t topics.Path) int {
	for i, p := range paths {
		if p.Equal(t) {
			return i
		}
	}
	panic("perfbench: generator topic outside its own topic set")
}

// dataJSON is the JSON payload carried by CloudEvents and MQTT publishes.
func dataJSON(e *event) []byte {
	return []byte(fmt.Sprintf(`{"seq":%d,"sched":%d,"job":%q}`, e.seq, int64(e.offset), e.job))
}

// render produces the wire body of one publish for its door.
func render(e *event, ge workload.Event, path topics.Path) []byte {
	switch e.door {
	case doorSOAP:
		payload := ge.Payload
		if seq := payload.ChildText(xmldom.N(workload.NS, "seq")); seq != strconv.Itoa(e.seq) {
			panic("perfbench: generator sequence " + seq + " out of step with publish " + strconv.Itoa(e.seq))
		}
		payload.Append(xmldom.Elem(workload.NS, "sched", strconv.FormatInt(int64(e.offset), 10)))
		env := soap.New(soap.V11)
		h := &wsa.MessageHeaders{Version: wsa.V200508, To: "/", Action: wsnt.V1_3.ActionNotify()}
		h.Apply(env)
		env.AddBody(wsnt.NotifyElement(wsnt.V1_3, []*wsnt.NotificationMessage{{Topic: path, Payload: payload}}))
		return env.Marshal()
	case doorCE:
		ev := &cloudevents.Event{
			SpecVersion:     cloudevents.SpecVersion,
			ID:              "perfbench-" + strconv.Itoa(e.seq),
			Source:          "urn:perfbench",
			Type:            cloudevents.TypeForTopic(path),
			DataContentType: "application/json",
			Data:            dataJSON(e),
		}
		ev.SetExtension("jobuser", fmt.Sprintf("user%02d", e.user))
		return ev.JSON()
	default:
		return dataJSON(e)
	}
}

// mqttPath is the WS-Topics path the session-doors MQTT topic maps to.
func mqttPath() topics.Path {
	p, err := mqtt.PathForTopic(mqttTopic)
	if err != nil {
		panic(err)
	}
	return p
}

// expected counts the deliveries the oracle requires per phase and per
// block, and the topic candidates per phase (subscriptions whose topic
// matches, before filters).
func (p *plan) expected(subs []subDef) (deliveries, candidates [phaseCount]int, perBlock []int) {
	perBlock = make([]int, len(p.blocks))
	for i := range p.events {
		e := &p.events[i]
		for _, s := range subs {
			if s.topic < 0 || s.topic == e.topic {
				candidates[e.phase]++
				if s.wants(e) {
					deliveries[e.phase]++
					perBlock[e.block]++
				}
			}
		}
	}
	return deliveries, candidates, perBlock
}
