package downlink

import (
	"fmt"

	"repro/internal/obs"
)

// message is one enqueued payload, fragmented lazily into chunks.
type message struct {
	class      Class
	id         uint32
	payload    []byte
	enqueuedAt float64
	nextChunk  int // index of the next un-transmitted chunk
	total      int // chunk count
}

// Scheduler is the flight-side egress queue: four strict-priority classes
// of messages, fragmented into chunks on demand. Priority is re-evaluated
// at every chunk boundary, so a message enqueued in a higher class
// preempts a lower-class message mid-flight — its remaining chunks simply
// wait. The scheduler itself is time-free; pacing (token bucket, contact
// windows) and reliability (ARQ) belong to the Session driving it.
//
// Scheduler is not safe for concurrent use: like the stream processor's
// trigger state, it is owned by a single driving goroutine.
type Scheduler struct {
	chunkBytes int
	queues     [NumClasses][]*message
	nextMsgID  [NumClasses]uint32
	nextSeq    uint32
	metrics    *obs.Registry
}

// NewScheduler returns a scheduler fragmenting payloads into chunks of at
// most chunkBytes (0 = the 1024-byte default).
func NewScheduler(chunkBytes int, metrics *obs.Registry) *Scheduler {
	if chunkBytes <= 0 {
		chunkBytes = 1024
	}
	if chunkBytes > MaxChunkPayload {
		chunkBytes = MaxChunkPayload
	}
	return &Scheduler{chunkBytes: chunkBytes, metrics: metrics}
}

// Enqueue appends a payload to its class queue at event time t, returning
// the per-class message ID. Empty payloads are legal (a single empty
// chunk). Payloads larger than 65535 chunks are rejected.
func (s *Scheduler) Enqueue(t float64, class Class, payload []byte) (uint32, error) {
	if class >= NumClasses {
		return 0, fmt.Errorf("downlink: unknown class %d", class)
	}
	total := (len(payload) + s.chunkBytes - 1) / s.chunkBytes
	if total == 0 {
		total = 1
	}
	if total > 0xFFFF {
		return 0, fmt.Errorf("downlink: payload of %d bytes needs %d chunks (limit 65535)", len(payload), total)
	}
	id := s.nextMsgID[class]
	s.nextMsgID[class]++
	s.queues[class] = append(s.queues[class], &message{
		class:      class,
		id:         id,
		payload:    payload,
		enqueuedAt: t,
		total:      total,
	})
	s.metrics.Gauge(GaugeQueuePrefix + "_" + class.String()).Set(float64(len(s.queues[class])))
	return id, nil
}

// NextChunk pops the next chunk to transmit under strict class priority,
// assigning it the next link sequence number. It returns false when every
// queue is empty.
func (s *Scheduler) NextChunk() (*Chunk, float64, bool) {
	for class := Class(0); class < NumClasses; class++ {
		q := s.queues[class]
		if len(q) == 0 {
			continue
		}
		m := q[0]
		lo := m.nextChunk * s.chunkBytes
		hi := min(lo+s.chunkBytes, len(m.payload))
		c := &Chunk{
			Class:   m.class,
			MsgID:   m.id,
			Index:   uint16(m.nextChunk),
			Total:   uint16(m.total),
			Seq:     s.nextSeq,
			Payload: m.payload[lo:hi],
		}
		s.nextSeq++
		m.nextChunk++
		if m.nextChunk == m.total {
			s.queues[class] = q[1:]
			s.metrics.Gauge(GaugeQueuePrefix + "_" + class.String()).Set(float64(len(s.queues[class])))
		}
		return c, m.enqueuedAt, true
	}
	return nil, 0, false
}

// Pending reports whether any chunk remains to transmit.
func (s *Scheduler) Pending() bool {
	for _, q := range s.queues {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// QueueDepth returns the number of messages waiting in class c.
func (s *Scheduler) QueueDepth(c Class) int { return len(s.queues[c]) }
