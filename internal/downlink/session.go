package downlink

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// LossProfile describes the link emulator's fault model. Every decision is
// drawn from a per-transmission substream of the session seed
// (root.Split(txCount), the same discipline internal/chaos uses), so the
// fault sequence is a pure function of (seed, transmission order) — not of
// wall clock or goroutine scheduling.
type LossProfile struct {
	// DropProb is the per-frame loss probability in [0, 1).
	DropProb float64 `json:"drop_prob,omitempty"`
	// CorruptProb flips one byte of the frame with this probability; the
	// receiver's CRC rejects it, so corruption behaves as detected loss.
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	// ReorderProb delays a frame by an extra ReorderDelaySec·U[0.5,1.5),
	// letting later frames overtake it.
	ReorderProb float64 `json:"reorder_prob,omitempty"`
	// ReorderDelaySec is the extra delay scale (default 0.25 s).
	ReorderDelaySec float64 `json:"reorder_delay_sec,omitempty"`
	// Outages are event-time intervals in which every frame — data and ack
	// alike — is lost.
	Outages []Window `json:"outages,omitempty"`
}

// inOutage reports whether a frame transmitted at t is swallowed.
func (l *LossProfile) inOutage(t float64) bool {
	for _, w := range l.Outages {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// Config assembles a downlink session. NewSession fills zero values with
// the documented defaults.
type Config struct {
	// BudgetBytesPerSec is the downlink bandwidth budget (required > 0).
	BudgetBytesPerSec float64
	// BurstBytes is the token bucket's instantaneous headroom
	// (default 4 full frames).
	BurstBytes int
	// ChunkBytes is the per-chunk payload size (default 1024).
	ChunkBytes int
	// Windows are the contact windows; empty means the link is always up.
	Windows []Window
	// RetransmitWindow bounds outstanding unacked chunks (default 256).
	RetransmitWindow int
	// WindowReserve keeps this many outstanding slots usable only by
	// alert/sky-map chunks, so a saturated backfill window can never block
	// a fresh alert (default 8).
	WindowReserve int
	// AckIntervalSec is the ground's control-frame cadence (default 0.2).
	AckIntervalSec float64
	// RTTSec is the round-trip link latency (default 0.1, half each way).
	RTTSec float64
	// RTOSec retransmits a chunk unacked this long — the backstop for lost
	// control frames (default 4·(AckIntervalSec+RTTSec)).
	RTOSec float64
	// Seed drives the link emulator's fault substreams.
	Seed uint64
	// Loss is the emulated fault model (zero = a perfect link).
	Loss LossProfile
	// OnMessage receives every delivered message in per-class msgID order
	// (nil = collect via the Reassembler only).
	OnMessage func(class Class, msgID uint32, payload []byte, t float64)
	// Metrics receives the downlink counters/gauges (nil = off).
	Metrics *obs.Registry
}

func (c Config) withDefaults() (Config, error) {
	if !(c.BudgetBytesPerSec > 0) || math.IsInf(c.BudgetBytesPerSec, 0) {
		return c, fmt.Errorf("downlink: BudgetBytesPerSec must be positive, got %g", c.BudgetBytesPerSec)
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 1024
	}
	if c.ChunkBytes > MaxChunkPayload {
		c.ChunkBytes = MaxChunkPayload
	}
	if c.BurstBytes <= 0 {
		c.BurstBytes = 4 * (c.ChunkBytes + DataOverhead)
	}
	if c.RetransmitWindow <= 0 {
		c.RetransmitWindow = 256
	}
	if c.WindowReserve <= 0 {
		c.WindowReserve = 8
	}
	if c.WindowReserve >= c.RetransmitWindow {
		c.WindowReserve = c.RetransmitWindow / 2
	}
	if c.AckIntervalSec <= 0 {
		c.AckIntervalSec = 0.2
	}
	if c.RTTSec < 0 {
		c.RTTSec = 0
	}
	if c.RTTSec == 0 {
		c.RTTSec = 0.1
	}
	if c.RTOSec <= 0 {
		c.RTOSec = 4 * (c.AckIntervalSec + c.RTTSec)
	}
	if c.Loss.ReorderDelaySec <= 0 {
		c.Loss.ReorderDelaySec = 0.25
	}
	l := &c.Loss
	if l.DropProb < 0 || l.DropProb >= 1 || l.CorruptProb < 0 || l.CorruptProb >= 1 ||
		l.ReorderProb < 0 || l.ReorderProb > 1 {
		return c, fmt.Errorf("downlink: loss probabilities out of range (drop %g, corrupt %g, reorder %g)",
			l.DropProb, l.CorruptProb, l.ReorderProb)
	}
	return c, nil
}

// Stats is the flight-side accounting for one session. Every field is a
// pure function of (traffic, config, seed).
type Stats struct {
	ChunksSent         int64                `json:"chunks_sent"`
	ChunksByClass      [NumClasses]int64    `json:"chunks_by_class"`
	FrameBytesByClass  [NumClasses]int64    `json:"frame_bytes_by_class"`
	FrameBytesSent     int64                `json:"frame_bytes_sent"`
	Retransmits        int64                `json:"retransmits"`
	RetransmitsByClass [NumClasses]int64    `json:"retransmits_by_class"`
	FramesDropped      int64                `json:"frames_dropped"`
	FramesCorrupted    int64                `json:"frames_corrupted"`
	OutageLost         int64                `json:"outage_lost"`
	AcksSent           int64                `json:"acks_sent"`
	AcksLost           int64                `json:"acks_lost"`
	DeliveredByClass   [NumClasses]int64    `json:"delivered_by_class"`
	PayloadByClass     [NumClasses]int64    `json:"payload_bytes_by_class"`
	ElapsedSec         float64              `json:"elapsed_sec"`
	BudgetUtilization  float64              `json:"budget_utilization"`
	Ground             GroundStats          `json:"ground"`
	Latency            [NumClasses]*Summary `json:"latency_by_class"`
}

// Summary is the percentile summary of one class's enqueue→delivery
// latencies, in event-time seconds.
type Summary struct {
	Count  int     `json:"count"`
	P50Sec float64 `json:"p50_sec"`
	P90Sec float64 `json:"p90_sec"`
	MaxSec float64 `json:"max_sec"`
}

// txChunk is one outstanding (unacked) transmitted chunk.
type txChunk struct {
	chunk      *Chunk
	enqueuedAt float64
	rtoAt      float64
	inRetx     bool
}

// rtoTimer is one armed retransmission timeout: chunk seq times out at at,
// unless it has since been acked, queued for retransmission or sent again.
type rtoTimer struct {
	at  float64
	seq uint32
}

// rtoHeap orders timeouts by (time, seq). Timeouts that no longer hold are
// left in it and skipped when they reach the top.
type rtoHeap []rtoTimer

func (h rtoHeap) Len() int { return len(h) }
func (h rtoHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h rtoHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *rtoHeap) Push(x interface{}) { *h = append(*h, x.(rtoTimer)) }
func (h *rtoHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// linkEvent is one scheduled future happening on the emulated link.
type linkEvent struct {
	t     float64
	order uint64 // insertion order: deterministic tie-break
	frame []byte // data frame bytes arriving at the ground (possibly corrupted)
	ack   *Ack   // control frame arriving at the flight side
}

// eventHeap orders link events by (time, insertion order).
type eventHeap []*linkEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].order < h[j].order
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*linkEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Session is a full flight↔ground downlink running in event time: the
// Scheduler's chunks flow through the token bucket, contact windows, and
// the seeded link emulator to the Reassembler, whose ACK/NAK control
// frames flow back through the same faulty link; a selective-repeat ARQ
// layer with an RTO backstop recovers every loss. The caller drives time
// forward with Advance/Enqueue and drains the tail with Flush.
//
// Session is single-threaded by construction — it is a discrete-event
// simulation, so its entire output is deterministic for a given
// (traffic, config, seed).
type Session struct {
	cfg    Config
	now    float64
	sched  *Scheduler
	ground *Reassembler

	outstanding map[uint32]*txChunk
	rtos        rtoHeap
	retxQ       [NumClasses][]uint32

	tokens     float64
	lastRefill float64

	events   eventHeap
	evOrder  uint64
	ackDueAt float64

	enqTimes  map[msgKey]float64
	latencies [NumClasses][]float64

	downRoot, upRoot *xrand.RNG
	txCount, ackNum  uint64

	stats Stats
}

// NewSession validates cfg and returns an idle session at event time 0.
func NewSession(cfg Config) (*Session, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sort.Slice(cfg.Windows, func(i, j int) bool { return cfg.Windows[i].StartSec < cfg.Windows[j].StartSec })
	root := xrand.New(cfg.Seed)
	s := &Session{
		cfg:         cfg,
		sched:       NewScheduler(cfg.ChunkBytes, cfg.Metrics),
		ground:      NewReassembler(),
		outstanding: make(map[uint32]*txChunk),
		tokens:      float64(cfg.BurstBytes),
		ackDueAt:    math.Inf(1),
		enqTimes:    make(map[msgKey]float64),
		downRoot:    root.Split(0xD0),
		upRoot:      root.Split(0x0B),
	}
	s.ground.OnMessage = s.onDelivered
	return s, nil
}

// Ground returns the session's receiver, for direct stats access.
func (s *Session) Ground() *Reassembler { return s.ground }

// Now returns the session's current event time.
func (s *Session) Now() float64 { return s.now }

// onDelivered is the Reassembler's delivery hook: latency accounting, then
// the caller's hook.
func (s *Session) onDelivered(class Class, msgID uint32, payload []byte, t float64) {
	s.stats.DeliveredByClass[class]++
	s.stats.PayloadByClass[class] += int64(len(payload))
	if te, ok := s.enqTimes[msgKey{class, msgID}]; ok {
		delete(s.enqTimes, msgKey{class, msgID})
		lat := t - te
		s.latencies[class] = append(s.latencies[class], lat)
		s.cfg.Metrics.ObserveStage(StageDeliver, time.Duration(lat*float64(time.Second)))
	}
	s.cfg.Metrics.Counter(CtrDelivered).Inc()
	if s.cfg.OnMessage != nil {
		s.cfg.OnMessage(class, msgID, payload, t)
	}
}

// Enqueue submits a payload at the session's current event time.
func (s *Session) Enqueue(class Class, payload []byte) error {
	return s.EnqueueAt(s.now, class, payload)
}

// EnqueueAt advances the session to event time t, then submits a payload.
// t must not precede the session clock.
func (s *Session) EnqueueAt(t float64, class Class, payload []byte) error {
	if t < s.now {
		return fmt.Errorf("downlink: enqueue at %g before session time %g", t, s.now)
	}
	s.Advance(t)
	id, err := s.sched.Enqueue(t, class, payload)
	if err != nil {
		return err
	}
	s.enqTimes[msgKey{class, id}] = t
	return nil
}

// Advance runs the link simulation forward to event time t.
func (s *Session) Advance(t float64) {
	for {
		tEv := math.Inf(1)
		if len(s.events) > 0 {
			tEv = s.events[0].t
		}
		tAck := s.ackDueAt
		tRto := s.nextRTO()
		tTx := s.nextTxTime()
		tn := math.Min(math.Min(tEv, tAck), math.Min(tRto, tTx))
		if tn > t || math.IsInf(tn, 1) {
			break
		}
		if tn > s.now {
			s.now = tn // the clock must track the processed instant, or the
			// token-debt wait in nextTxTime is computed from a stale time
		}
		// Fixed processing order at equal times: arrivals, ack emission,
		// RTO expiry, then transmission — any fixed order is deterministic.
		switch tn {
		case tEv:
			s.processEvent(heap.Pop(&s.events).(*linkEvent))
		case tAck:
			s.emitAck(tn)
		case tRto:
			s.expireRTO(tn)
		default:
			s.transmit(tn)
		}
	}
	if t > s.now {
		s.now = t
	}
}

// Quiescent reports whether nothing remains in flight anywhere: no queued
// chunks, no unacked chunks, no frames on the wire, no ack pending.
func (s *Session) Quiescent() bool {
	return !s.sched.Pending() && len(s.outstanding) == 0 && len(s.events) == 0 &&
		math.IsInf(s.ackDueAt, 1)
}

// Flush drives the session until it is quiescent or event time reaches
// deadline, returning whether everything was delivered and acked. For any
// loss profile short of a permanently severed link, a large enough
// deadline always drains.
func (s *Session) Flush(deadline float64) bool {
	for !s.Quiescent() {
		tn := s.nextTime()
		if math.IsInf(tn, 1) || tn > deadline {
			s.Advance(deadline)
			break
		}
		s.Advance(tn)
	}
	return s.Quiescent()
}

// nextTime returns the next instant anything happens.
func (s *Session) nextTime() float64 {
	tEv := math.Inf(1)
	if len(s.events) > 0 {
		tEv = s.events[0].t
	}
	return math.Min(math.Min(tEv, s.ackDueAt), math.Min(s.nextRTO(), s.nextTxTime()))
}

// refill advances the token bucket to time t.
func (s *Session) refill(t float64) {
	if t > s.lastRefill {
		s.tokens = math.Min(float64(s.cfg.BurstBytes), s.tokens+(t-s.lastRefill)*s.cfg.BudgetBytesPerSec)
		s.lastRefill = t
	}
}

// windowOpenAt returns the earliest time ≥ t at which a contact window is
// open, or +Inf if none remains.
func (s *Session) windowOpenAt(t float64) float64 {
	if len(s.cfg.Windows) == 0 {
		return t
	}
	for _, w := range s.cfg.Windows {
		if t < w.EndSec {
			return math.Max(t, w.StartSec)
		}
	}
	return math.Inf(1)
}

// nextSendable picks the chunk the flight side would transmit next —
// retransmissions and fresh chunks merged under strict class priority —
// without consuming it. It returns the class, and whether it is a
// retransmission.
func (s *Session) nextSendable() (Class, bool, bool) {
	newOK := func(c Class) bool {
		limit := s.cfg.RetransmitWindow
		if c > ClassSkyMap {
			limit -= s.cfg.WindowReserve
		}
		return len(s.outstanding) < limit
	}
	for c := Class(0); c < NumClasses; c++ {
		s.compactRetx(c)
		if len(s.retxQ[c]) > 0 {
			return c, true, true
		}
		if s.sched.QueueDepth(c) > 0 && newOK(c) {
			return c, false, true
		}
	}
	return 0, false, false
}

// compactRetx drops retx entries that were acked after being queued.
func (s *Session) compactRetx(c Class) {
	q := s.retxQ[c]
	out := q[:0]
	for _, seq := range q {
		if tc, ok := s.outstanding[seq]; ok && tc.inRetx {
			out = append(out, seq)
		}
	}
	s.retxQ[c] = out
}

// nextTxTime returns the earliest time a transmission can happen, or +Inf
// when there is nothing sendable (or no contact window remains).
func (s *Session) nextTxTime() float64 {
	if _, _, ok := s.nextSendable(); !ok {
		return math.Inf(1)
	}
	t := s.now
	// Token debt model: a frame may transmit once the bucket is
	// non-negative and is charged its full size, going into debt — the
	// long-run rate is exactly the budget without per-frame size peeking.
	s.refill(t)
	if s.tokens < 0 {
		t += -s.tokens / s.cfg.BudgetBytesPerSec
	}
	return s.windowOpenAt(t)
}

// armed reports whether timer r still holds: its chunk is unacked, not
// queued for retransmission, and was last sent when r was set.
func (s *Session) armed(r rtoTimer) bool {
	tc, ok := s.outstanding[r.seq]
	return ok && !tc.inRetx && tc.rtoAt == r.at
}

// nextRTO returns the earliest retransmission-timeout instant, dropping
// the timers that no longer hold from the top of the heap.
func (s *Session) nextRTO() float64 {
	for len(s.rtos) > 0 {
		if r := s.rtos[0]; s.armed(r) {
			return r.at
		}
		heap.Pop(&s.rtos)
	}
	return math.Inf(1)
}

// expireRTO moves every chunk whose timeout passed into the retransmit
// queue. Advance calls it at the earliest armed timeout, so every chunk it
// moves timed out at that one instant, and the heap yields them in seq
// order.
func (s *Session) expireRTO(t float64) {
	for len(s.rtos) > 0 && s.rtos[0].at <= t {
		if r := heap.Pop(&s.rtos).(rtoTimer); s.armed(r) {
			tc := s.outstanding[r.seq]
			tc.inRetx = true
			s.retxQ[tc.chunk.Class] = append(s.retxQ[tc.chunk.Class], r.seq)
		}
	}
}

// transmit sends one chunk at time t through the emulated link.
func (s *Session) transmit(t float64) {
	class, isRetx, ok := s.nextSendable()
	if !ok {
		return
	}
	var tc *txChunk
	if isRetx {
		seq := s.retxQ[class][0]
		s.retxQ[class] = s.retxQ[class][1:]
		tc = s.outstanding[seq]
		tc.inRetx = false
		s.stats.Retransmits++
		s.stats.RetransmitsByClass[class]++
		s.cfg.Metrics.Counter(CtrRetransPrefix + "_" + class.String()).Inc()
	} else {
		c, enqAt, _ := s.sched.NextChunk()
		tc = &txChunk{chunk: c, enqueuedAt: enqAt}
		s.outstanding[c.Seq] = tc
	}
	frame := tc.chunk.EncodeFrame()
	s.refill(t)
	s.tokens -= float64(len(frame))
	tc.rtoAt = t + s.cfg.RTOSec
	heap.Push(&s.rtos, rtoTimer{at: tc.rtoAt, seq: tc.chunk.Seq})

	s.stats.ChunksSent++
	s.stats.ChunksByClass[class]++
	s.stats.FrameBytesByClass[class] += int64(len(frame))
	s.stats.FrameBytesSent += int64(len(frame))
	s.cfg.Metrics.Counter(CtrChunksPrefix + "_" + class.String()).Inc()
	s.cfg.Metrics.Counter(CtrBytesPrefix + "_" + class.String()).Add(int64(len(frame)))

	s.txCount++
	rng := s.downRoot.Split(s.txCount)
	serial := float64(len(frame)) / s.cfg.BudgetBytesPerSec
	switch {
	case s.cfg.Loss.inOutage(t):
		s.stats.OutageLost++
		s.cfg.Metrics.Counter(CtrOutageLost).Inc()
	case rng.Bool(s.cfg.Loss.DropProb):
		s.stats.FramesDropped++
		s.cfg.Metrics.Counter(CtrDropped).Inc()
	default:
		if rng.Bool(s.cfg.Loss.CorruptProb) {
			frame = append([]byte(nil), frame...)
			frame[rng.IntN(len(frame))] ^= byte(1 + rng.IntN(255))
			s.stats.FramesCorrupted++
			s.cfg.Metrics.Counter(CtrCorrupted).Inc()
		}
		delay := serial + s.cfg.RTTSec/2
		if rng.Bool(s.cfg.Loss.ReorderProb) {
			delay += s.cfg.Loss.ReorderDelaySec * rng.Uniform(0.5, 1.5)
		}
		s.push(&linkEvent{t: t + delay, frame: frame})
	}
}

// push inserts a link event with a deterministic tie-break order.
func (s *Session) push(ev *linkEvent) {
	ev.order = s.evOrder
	s.evOrder++
	heap.Push(&s.events, ev)
}

// processEvent handles one arrival.
func (s *Session) processEvent(ev *linkEvent) {
	switch {
	case ev.frame != nil:
		s.ground.OfferFrame(ev.frame, ev.t)
		if math.IsInf(s.ackDueAt, 1) {
			s.ackDueAt = ev.t + s.cfg.AckIntervalSec
		}
	case ev.ack != nil:
		s.applyAck(ev.ack)
	}
}

// emitAck builds and transmits one ground control frame at time t.
func (s *Session) emitAck(t float64) {
	ack := s.ground.AckState()
	s.stats.AcksSent++
	s.cfg.Metrics.Counter(CtrAcksSent).Inc()
	s.ackNum++
	rng := s.upRoot.Split(s.ackNum)
	lost := s.cfg.Loss.inOutage(t) || rng.Bool(s.cfg.Loss.DropProb) || rng.Bool(s.cfg.Loss.CorruptProb)
	if lost {
		s.stats.AcksLost++
		s.cfg.Metrics.Counter(CtrAcksLost).Inc()
	} else {
		delay := s.cfg.RTTSec / 2
		if rng.Bool(s.cfg.Loss.ReorderProb) {
			delay += s.cfg.Loss.ReorderDelaySec * rng.Uniform(0.5, 1.5)
		}
		s.push(&linkEvent{t: t + delay, ack: &ack})
	}
	// Keep acking while the flight side still has unacked or queued data —
	// in-flight data frames are in outstanding until acked, and the flight
	// RTO regenerates traffic if the last ack of a burst is lost. The ack
	// event just pushed must not count, or the loop self-sustains forever.
	if len(s.outstanding) > 0 || s.sched.Pending() {
		s.ackDueAt = t + s.cfg.AckIntervalSec
	} else {
		s.ackDueAt = math.Inf(1)
	}
}

// applyAck frees acked chunks and queues NAKed ones for retransmission.
func (s *Session) applyAck(a *Ack) {
	for seq := range s.outstanding {
		if seq < a.Cum {
			delete(s.outstanding, seq)
		}
	}
	for _, seq := range a.Sack {
		delete(s.outstanding, seq)
	}
	for _, seq := range a.Nak {
		if tc, ok := s.outstanding[seq]; ok && !tc.inRetx {
			tc.inRetx = true
			s.retxQ[tc.chunk.Class] = append(s.retxQ[tc.chunk.Class], seq)
		}
	}
}

// Stats snapshots the session accounting, including latency summaries and
// the budget utilization over the elapsed event time.
func (s *Session) Stats() *Stats {
	st := s.stats
	st.Ground = s.ground.Stats()
	st.ElapsedSec = s.now
	if s.now > 0 {
		st.BudgetUtilization = float64(st.FrameBytesSent) / (s.now * s.cfg.BudgetBytesPerSec)
	}
	for c := Class(0); c < NumClasses; c++ {
		st.Latency[c] = summarize(s.latencies[c])
	}
	s.cfg.Metrics.Gauge(GaugeUtilization).Set(st.BudgetUtilization)
	return &st
}

// Latencies returns a copy of the enqueue→delivery latencies recorded for
// one class, in delivery order (event-time seconds).
func (s *Session) Latencies(c Class) []float64 {
	return append([]float64(nil), s.latencies[c]...)
}

// summarize computes a percentile summary (nil for an empty sample).
func summarize(lat []float64) *Summary {
	if len(lat) == 0 {
		return nil
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return &Summary{
		Count:  len(sorted),
		P50Sec: q(0.50),
		P90Sec: q(0.90),
		MaxSec: sorted[len(sorted)-1],
	}
}
