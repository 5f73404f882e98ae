package main

import (
	"bytes"
	"strconv"
)

// The receivers identify what arrived by scanning delivery bodies for the
// fields the benchmark stamped into every payload: seq, sched and job.
// The same three keys appear as XML elements (<w:seq>12</w:seq>) in
// JobEvent payloads and as JSON members ("seq":12) in CloudEvents data,
// bridged or not, so one scanner reads every delivery form without a
// parser on the receiving hot path.

// entry is one delivered notification as the receiver saw it.
type entry struct {
	sid   []byte // subscription id, when the body names one
	seq   int
	sched int64
	job   []byte
}

var sidKey = []byte("SubscriptionId")

// field finds the next value of key at or after from, in either XML
// element or JSON member form. It returns the value and the offset just
// past it.
func field(body []byte, from int, key string) (val []byte, next int, ok bool) {
	k := []byte(key)
	for from < len(body) {
		i := bytes.Index(body[from:], k)
		if i < 0 {
			return nil, len(body), false
		}
		i += from
		from = i + len(k)
		if i == 0 || from >= len(body) {
			continue
		}
		switch body[i-1] {
		case '<', ':', '"':
		default:
			continue
		}
		switch body[from] {
		case '>': // XML element text, up to the closing tag
			start := from + 1
			end := bytes.IndexByte(body[start:], '<')
			if end < 0 {
				return nil, len(body), false
			}
			return body[start : start+end], start + end, true
		case '"': // JSON member: "key":value or "key":"value"
			if from+1 >= len(body) || body[from+1] != ':' {
				continue
			}
			start := from + 2
			if start < len(body) && body[start] == '"' {
				start++
				end := bytes.IndexByte(body[start:], '"')
				if end < 0 {
					return nil, len(body), false
				}
				return body[start : start+end], start + end + 1, true
			}
			end := start
			for end < len(body) && body[end] >= '0' && body[end] <= '9' {
				end++
			}
			return body[start:end], end, true
		}
	}
	return nil, len(body), false
}

// scanEntries reports every stamped notification in body, in document
// order. With keyed set, each must be preceded by the SubscriptionId of
// the subscription it was delivered to (a coalesced WSN envelope carries
// many); otherwise the receiver knows the subscription from the request.
// It stops at the first malformed entry and reports how many fields it
// could not read, which the caller counts as corrupt.
func scanEntries(body []byte, keyed bool, fn func(entry)) (corrupt int) {
	pos := 0
	for {
		var e entry
		if keyed {
			i := bytes.Index(body[pos:], sidKey)
			if i < 0 {
				return corrupt
			}
			pos += i + len(sidKey)
			gt := bytes.IndexByte(body[pos:], '>')
			if gt < 0 {
				return corrupt + 1
			}
			pos += gt + 1
			lt := bytes.IndexByte(body[pos:], '<')
			if lt < 0 {
				return corrupt + 1
			}
			e.sid = body[pos : pos+lt]
			// Step over the closing tag, which names SubscriptionId too.
			pos += lt
			if gt = bytes.IndexByte(body[pos:], '>'); gt < 0 {
				return corrupt + 1
			}
			pos += gt + 1
		}
		seq, next, ok := field(body, pos, "seq")
		if !ok {
			if keyed {
				corrupt++
			}
			return corrupt
		}
		n, err := strconv.Atoi(string(seq))
		sched, next2, ok2 := field(body, next, "sched")
		job, next3, ok3 := field(body, next, "job")
		if err != nil || !ok2 || !ok3 {
			return corrupt + 1
		}
		e.seq = n
		e.sched, err = strconv.ParseInt(string(sched), 10, 64)
		if err != nil {
			return corrupt + 1
		}
		e.job = job
		fn(e)
		pos = max(next2, next3)
	}
}

// seqsIn lists the distinct sequence numbers a body carries, in order of
// first appearance — what the traced client records per wire send.
func seqsIn(body []byte) []int32 {
	var out []int32
	pos := 0
	for {
		v, next, ok := field(body, pos, "seq")
		if !ok {
			return out
		}
		pos = next
		n, err := strconv.Atoi(string(v))
		if err != nil {
			continue
		}
		dup := false
		for _, s := range out {
			if s == int32(n) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, int32(n))
		}
	}
}
