// Package stream is the on-board system's burst trigger: a continuous
// event-ingestion pipeline with bounded memory that detects burst
// candidates as photons arrive and hands each candidate window to the
// Fig. 6 localization pipeline. It is the only trigger in the repository:
// live feeds and journal replays drive a Processor, and recorded exposures
// (campaigns, adapt.Onboard, /v1/replay) go through Run. It works under the
// constraints flight software actually runs with:
//
//   - a bounded ring buffer holds the recent event history — memory use is
//     fixed no matter how long the flight lasts;
//   - an online background-rate estimator (EWMA over event-time bins)
//     tracks the slowly varying atmospheric rate, so the trigger threshold
//     adapts without ground contact;
//   - a sliding-window Poisson count trigger fires burst candidates, and a
//     deadtime after each trigger keeps the burst itself from inflating
//     the background estimate;
//   - after an alert the sliding window re-arms only on events at or after
//     that alert's window end, so the tail of a burst that ends inside the
//     window cannot fire a second alert, while a burst that outlasts it
//     re-alerts on fresh events;
//   - backpressure is explicit: the ingest queue and the alert queue are
//     bounded channels, overloads increment drop counters in internal/obs
//     instead of growing queues, and nothing ever blocks the detector.
//
// Every piece of trigger state advances on *event time*, never wall-clock
// time, so driving the processor from a recorded flight journal
// (internal/flightlog) reproduces the live run's alert sequence exactly.
package stream

import (
	"encoding/base64"
	"math"
	"sync"

	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/localize"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/skymap"
	"repro/internal/xrand"
)

// Metric names published into Config.Metrics.
const (
	CtrIngested      = "stream_events_ingested"
	CtrDropped       = "stream_events_dropped"
	CtrShed          = "stream_events_shed"
	CtrTriggers      = "stream_triggers"
	CtrAlerts        = "stream_alerts_emitted"
	CtrAlertsDropped = "stream_alerts_dropped"
	CtrJournalErrors = "stream_journal_errors"
	GaugeOccupancy   = "stream_ring_occupancy"
	GaugeRate        = "stream_bkg_rate_hz"
	StageLocalize    = "stream_localize"
)

// Config assembles the streaming trigger pipeline. DefaultConfig fills the
// flight defaults; New fills any remaining zero values.
type Config struct {
	// Recon / Loc / Bundle / MaxNNIters / Workers configure the
	// localization pipeline run on each burst candidate (nil Bundle = no-ML
	// pipeline).
	Recon      recon.Config
	Loc        localize.Config
	Bundle     *models.Bundle
	MaxNNIters int
	Workers    int

	// Backend selects the background-classifier inference implementation
	// ("" = float32; int8 needs a quantized Bundle — callers should
	// pre-validate with pipeline.NewClassifier, New panics on an invalid
	// combination). The processor resolves the backend once at New, so a
	// single classifier instance spans every fired window. Ignored when
	// BkgOverride is set.
	Backend pipeline.Backend

	// WindowSec is the trigger's sliding-window width (default 0.1 s).
	WindowSec float64
	// SigmaThreshold is the Poisson significance required to fire
	// (default 8).
	SigmaThreshold float64
	// BurstWindowSec is how much data after the trigger time is
	// accumulated and localized (default 1 s).
	BurstWindowSec float64
	// PreTriggerSec includes data just before the trigger time — the
	// rising edge of the light curve (default 0.05 s).
	PreTriggerSec float64

	// RateBinSec is the background-rate estimator's bin width
	// (default 0.1 s).
	RateBinSec float64
	// RateAlpha is the EWMA weight of one completed bin (default 0.05: a
	// ~2 s time constant at the default bin width).
	RateAlpha float64
	// InitialRate seeds the estimator, in events/second — the calibrated
	// quiet-sky rate a flight would upload (required; there is no safe
	// universal default for a trigger threshold).
	InitialRate float64

	// BufferEvents is the ring-buffer capacity (default 65536); it must
	// cover PreTriggerSec+BurstWindowSec of data at burst rates or the
	// oldest window events are lost (counted, never fatal).
	BufferEvents int
	// QueueEvents is the ingest-channel capacity (default 4096). Offer
	// drops (and counts) events when it is full. It also bounds the batch
	// the consumer drains from the queue at once, which a journaling
	// processor records with one journal call.
	QueueEvents int
	// AlertBuffer is the alert-channel capacity (default 16). Alerts are
	// dropped (and counted) when the consumer lags this far behind. Run
	// sizes it from its input and ignores this value.
	AlertBuffer int

	// Admit, when non-nil, gates every submitted event before any trigger
	// state advances: an event it rejects is shed (counted under CtrShed)
	// without being journaled, buffered, or seen by the rate estimator. It
	// runs on the single consumer goroutine, in event order, so it may keep
	// internal state; it sees a drained batch's events before the trigger
	// steps any of them. Determinism is the gate's contract — a gate that
	// is a pure function of the admitted event-time sequence (the chaos
	// campaign's overload model is one) keeps the alert sequence a pure
	// function of the input.
	// Because shed events are never journaled, replaying a journal recorded
	// through a gate reproduces the gated run's alerts bitwise with no gate
	// configured.
	Admit func(*detector.Event) bool

	// BkgOverride, when non-nil, replaces the pipeline's background
	// classifier for every fired window — the hook adaptserve uses to route
	// replayed-journal windows through its shared micro-batcher instead of
	// the per-call model. Determinism is the caller's contract: replay is
	// bitwise-reproducible only if the override is itself a pure function
	// of its inputs (the serving batcher is).
	BkgOverride pipeline.BkgClassifier

	// SkyMap, when true, attaches the downlink-grade quantized sky map
	// payload (internal/skymap) to every successfully localized alert and
	// its record. The payload is a pure function of the admitted event
	// sequence, so journal replay reproduces it bitwise.
	SkyMap bool
	// SkyMapOpts configures the payload builder (zero = calibrated
	// defaults).
	SkyMapOpts skymap.Options

	// Seed drives the localization solver's random sampling; alert k uses
	// the deterministic substream Split(k+1).
	Seed uint64
	// Metrics receives the counters/gauges/stages above (nil = off).
	Metrics *obs.Registry
	// Journal, when non-nil, durably records every admitted event before
	// it is processed, so a crash can be replayed into the same alerts.
	// The consumer journals the admitted events of each drained batch with
	// one AppendBatch, so the journal's bytes and fsyncs are those of one
	// Append per event.
	Journal *flightlog.Journal
}

// DefaultConfig returns the flight configuration for a given calibrated
// quiet-sky event rate (events/second).
func DefaultConfig(initialRate float64) Config {
	return Config{
		Recon:          recon.DefaultConfig(),
		Loc:            localize.DefaultConfig(),
		MaxNNIters:     5,
		WindowSec:      0.1,
		SigmaThreshold: 8,
		BurstWindowSec: 1.0,
		PreTriggerSec:  0.05,
		RateBinSec:     0.1,
		RateAlpha:      0.05,
		InitialRate:    initialRate,
	}
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Recon == (recon.Config{}) {
		c.Recon = recon.DefaultConfig()
	}
	if c.Loc == (localize.Config{}) {
		c.Loc = localize.DefaultConfig()
	}
	if c.MaxNNIters <= 0 {
		c.MaxNNIters = 5
	}
	if c.WindowSec <= 0 {
		c.WindowSec = 0.1
	}
	if c.SigmaThreshold <= 0 {
		c.SigmaThreshold = 8
	}
	if c.BurstWindowSec <= 0 {
		c.BurstWindowSec = 1.0
	}
	if c.PreTriggerSec < 0 {
		c.PreTriggerSec = 0
	}
	if c.RateBinSec <= 0 {
		c.RateBinSec = 0.1
	}
	if c.RateAlpha <= 0 || c.RateAlpha > 1 {
		c.RateAlpha = 0.05
	}
	if c.BufferEvents <= 0 {
		c.BufferEvents = 1 << 16
	}
	if c.QueueEvents <= 0 {
		c.QueueEvents = 4096
	}
	if c.AlertBuffer <= 0 {
		c.AlertBuffer = 16
	}
	return c
}

// Alert is one burst candidate detected and localized by the stream.
type Alert struct {
	// Seq numbers alerts from 0 in trigger order.
	Seq int
	// TriggerTime is the event time (seconds) of the window that fired.
	TriggerTime float64
	// Significance is the triggering window's Poisson significance.
	Significance float64
	// BackgroundRateHz is the estimator's rate when the trigger fired.
	BackgroundRateHz float64
	// NEvents is how many events the localized window held.
	NEvents int
	// Result is the pipeline outcome for the window.
	Result pipeline.Result
	// SkyMapPayload is the encoded downlink map (nil unless Config.SkyMap
	// and localization succeeded).
	SkyMapPayload []byte
	// Area68Deg2/Area90Deg2 are the payload's tempered credible areas in
	// square degrees (0 when no map was built).
	Area68Deg2, Area90Deg2 float64
}

// Record is the deterministic downlink form of an alert: every field is a
// pure function of the admitted event sequence and the configuration, so
// a journal replay reproduces records bitwise. (Result.Timing, which
// measures wall-clock, is deliberately excluded.)
type Record struct {
	Seq              int        `json:"seq"`
	TriggerS         float64    `json:"trigger_s"`
	Significance     float64    `json:"significance"`
	BackgroundRateHz float64    `json:"background_rate_hz"`
	NEvents          int        `json:"n_events"`
	OK               bool       `json:"ok"`
	Dir              [3]float64 `json:"dir"`
	ErrorRadiusDeg   float64    `json:"error_radius_deg"`
	RingsKept        int        `json:"rings_kept"`
	NNIterations     int        `json:"nn_iterations"`
	// SkyMapB64 carries the encoded downlink map (internal/skymap format)
	// in standard base64, with its tempered credible areas alongside;
	// empty/zero when map generation is off.
	SkyMapB64  string  `json:"skymap_b64,omitempty"`
	Area68Deg2 float64 `json:"area68_deg2,omitempty"`
	Area90Deg2 float64 `json:"area90_deg2,omitempty"`
}

// Record converts the alert to its downlink form.
func (a *Alert) Record() Record {
	rec := Record{
		Seq:              a.Seq,
		TriggerS:         a.TriggerTime,
		Significance:     a.Significance,
		BackgroundRateHz: a.BackgroundRateHz,
		NEvents:          a.NEvents,
		OK:               a.Result.Loc.OK,
		RingsKept:        a.Result.Kept,
		NNIterations:     a.Result.NNIterations,
	}
	if a.Result.Loc.OK {
		rec.Dir = [3]float64{a.Result.Loc.Dir.X, a.Result.Loc.Dir.Y, a.Result.Loc.Dir.Z}
		rec.ErrorRadiusDeg = a.Result.ErrorRadiusDeg
	}
	if len(a.SkyMapPayload) > 0 {
		rec.SkyMapB64 = base64.StdEncoding.EncodeToString(a.SkyMapPayload)
		rec.Area68Deg2 = a.Area68Deg2
		rec.Area90Deg2 = a.Area90Deg2
	}
	return rec
}

// ring is a bounded circular buffer of recent events, indexed by a global
// monotonically increasing sequence number.
type ring struct {
	buf  []*detector.Event
	next uint64 // sequence number of the next push
	n    int    // occupancy (≤ cap)
}

func newRing(capacity int) *ring { return &ring{buf: make([]*detector.Event, capacity)} }

// push appends ev, evicting the oldest event when full.
func (r *ring) push(ev *detector.Event) {
	r.buf[r.next%uint64(len(r.buf))] = ev
	r.next++
	if r.n < len(r.buf) {
		r.n++
	}
}

// oldest returns the sequence number of the oldest retained event.
func (r *ring) oldest() uint64 { return r.next - uint64(r.n) }

// at returns the event with sequence number seq (must be retained).
func (r *ring) at(seq uint64) *detector.Event { return r.buf[seq%uint64(len(r.buf))] }

// snapshot copies the retained events oldest-first.
func (r *ring) snapshot() []*detector.Event {
	out := make([]*detector.Event, 0, r.n)
	for seq := r.oldest(); seq != r.next; seq++ {
		out = append(out, r.at(seq))
	}
	return out
}

// rateEstimator tracks the background event rate as an EWMA over
// fixed-width event-time bins. All state advances on event time only.
type rateEstimator struct {
	binSec, alpha float64
	rate          float64 // events/second
	binStart      float64
	binCount      int
	started       bool
}

// advance moves the estimator to event time t, closing any completed bins.
// Bins that end while frozen (a burst in progress) are discarded instead
// of updating the rate, so the burst does not raise its own threshold.
func (e *rateEstimator) advance(t float64, frozen bool) {
	if !e.started {
		e.started = true
		e.binStart = math.Floor(t/e.binSec) * e.binSec
	}
	for t >= e.binStart+e.binSec {
		if !frozen {
			e.rate = (1-e.alpha)*e.rate + e.alpha*float64(e.binCount)/e.binSec
		}
		e.binCount = 0
		e.binStart += e.binSec
		// Long gaps complete many empty bins; close them in bulk.
		if gap := math.Floor((t - e.binStart) / e.binSec); gap > 1 {
			if !frozen {
				e.rate *= math.Pow(1-e.alpha, gap)
			}
			e.binStart += gap * e.binSec
		}
	}
	e.binCount++
}

// pending is a fired trigger whose burst window is still filling.
type pending struct {
	trig     float64
	deadline float64
	count    int     // events in the triggering window
	rate     float64 // background rate at trigger time
}

// Processor is the live streaming pipeline. Events enter via Offer (lossy,
// non-blocking — the detector feed) or Ingest (blocking — file and journal
// replay); alerts leave via Alerts. A single internal consumer goroutine
// owns all trigger state, so the alert sequence is a deterministic
// function of the admitted event sequence.
type Processor struct {
	cfg    Config
	in     chan *detector.Event
	alerts chan Alert
	done   chan struct{}
	stop   sync.Once

	// Metric handles, resolved once in New (nil when Config.Metrics is).
	ingested, shed   *obs.Counter
	occupancy, bkgHz *obs.Gauge

	// Consumer-goroutine state (unshared).
	ring      *ring
	rate      *rateEstimator
	winLo     uint64 // sequence of the first event inside the trigger window
	pend      *pending
	deadUntil float64
	root      *xrand.RNG
	seq       int

	// Journaling scratch, reused across batches: the records of one batch
	// marshaled back to back in jbuf, their end offsets, the records as
	// slices of jbuf, and the batch index of each record's event.
	jbuf  []byte
	jends []int
	jrecs [][]byte
	jidx  []int
}

// New validates cfg and starts the processor's consumer goroutine. Callers
// must Close it to flush the final window and release the goroutine.
func New(cfg Config) *Processor {
	cfg = cfg.withDefaults()
	if cfg.BkgOverride == nil {
		cls, err := pipeline.NewClassifier(cfg.Backend, cfg.Bundle)
		if err != nil {
			panic("stream: " + err.Error())
		}
		cfg.BkgOverride = cls
	}
	m := cfg.Metrics
	p := &Processor{
		cfg:       cfg,
		in:        make(chan *detector.Event, cfg.QueueEvents),
		alerts:    make(chan Alert, cfg.AlertBuffer),
		done:      make(chan struct{}),
		ingested:  m.Counter(CtrIngested),
		shed:      m.Counter(CtrShed),
		occupancy: m.Gauge(GaugeOccupancy),
		bkgHz:     m.Gauge(GaugeRate),
		ring:      newRing(cfg.BufferEvents),
		rate:      &rateEstimator{binSec: cfg.RateBinSec, alpha: cfg.RateAlpha, rate: cfg.InitialRate},
		root:      xrand.New(cfg.Seed),
	}
	go p.consume()
	return p
}

// Offer submits one event without blocking: the detector-feed path. It
// returns false (and counts the drop) when the ingest queue is full —
// overload sheds load instead of growing memory.
func (p *Processor) Offer(ev *detector.Event) bool {
	select {
	case p.in <- ev:
		return true
	default:
		p.cfg.Metrics.Counter(CtrDropped).Inc()
		return false
	}
}

// Ingest submits one event, blocking until the queue accepts it: the
// lossless path used by file input and journal replay.
func (p *Processor) Ingest(ev *detector.Event) { p.in <- ev }

// Alerts returns the alert channel. It is closed by Close after the final
// window flushes.
func (p *Processor) Alerts() <-chan Alert { return p.alerts }

// Close ends the input stream, flushes a pending burst window, waits for
// the consumer to drain, and closes the alert channel. Safe to call more
// than once.
func (p *Processor) Close() {
	p.stop.Do(func() { close(p.in) })
	<-p.done
}

// consume is the single consumer goroutine: it owns all trigger state. It
// takes the events already queued as one batch, up to QueueEvents.
func (p *Processor) consume() {
	defer close(p.done)
	defer close(p.alerts)
	batch := make([]*detector.Event, 0, p.cfg.QueueEvents)
	for ev := range p.in {
		batch = append(batch[:0], ev)
	drain:
		for len(batch) < cap(batch) {
			select {
			case ev, ok := <-p.in:
				if !ok {
					break drain
				}
				batch = append(batch, ev)
			default:
				break drain
			}
		}
		p.process(batch)
	}
	// End of stream: a burst window that was still filling fires with the
	// data it has, like a flight segment ending mid-burst.
	if p.pend != nil {
		p.fire()
	}
}

// process runs one drained batch: Admit on every event in order, the
// journal for the admitted ones, then the trigger on each in order — so
// every admitted event is on disk (and fsynced, as the sync policy says)
// before any of the batch is processed.
func (p *Processor) process(batch []*detector.Event) {
	admitted := batch[:0]
	for _, ev := range batch {
		if p.cfg.Admit != nil && !p.cfg.Admit(ev) {
			p.shed.Inc()
			continue
		}
		p.ingested.Inc()
		admitted = append(admitted, ev)
	}
	if p.cfg.Journal != nil {
		p.journal(admitted)
	}
	for _, ev := range admitted {
		p.step(ev)
	}
}

// journal records events with one journal call and replaces each journaled
// event with its journaled form, decoded into one event slab and one hit
// slab. evio stores hit fields as float32, so localizing the original
// float64 event would diverge from a replay at the last bit: live and
// replay must see identical inputs for the alert sequence to reproduce
// bitwise. An event that cannot be marshaled, or a batch the journal
// rejects, counts under CtrJournalErrors and is processed as it came.
func (p *Processor) journal(events []*detector.Event) {
	p.jbuf, p.jends, p.jidx = p.jbuf[:0], p.jends[:0], p.jidx[:0]
	failed := 0
	for i, ev := range events {
		b, err := evio.AppendMarshal(p.jbuf, []*detector.Event{ev})
		if err != nil {
			failed++
			continue
		}
		p.jbuf = b
		p.jends = append(p.jends, len(b))
		p.jidx = append(p.jidx, i)
	}
	p.jrecs = p.jrecs[:0]
	start := 0
	for _, end := range p.jends {
		p.jrecs = append(p.jrecs, p.jbuf[start:end:end])
		start = end
	}
	if len(p.jrecs) > 0 {
		if err := p.cfg.Journal.AppendBatch(p.jrecs); err != nil {
			failed += len(p.jrecs)
			p.jidx = p.jidx[:0]
		}
	}
	if failed > 0 {
		p.cfg.Metrics.Counter(CtrJournalErrors).Add(int64(failed))
	}
	if len(p.jidx) == 0 {
		return
	}
	dec, err := evio.UnmarshalSlab(p.jrecs)
	if err != nil || len(dec) != len(p.jidx) {
		return // unreachable: the records were marshaled just above
	}
	for k, i := range p.jidx {
		events[i] = &dec[k]
	}
}

// step advances every piece of trigger state past one admitted event.
func (p *Processor) step(ev *detector.Event) {
	t := ev.ArrivalTime

	// A pending burst whose window is complete fires before this event
	// joins the state — the window is [trig−pre, deadline).
	if p.pend != nil && t >= p.pend.deadline {
		p.fire()
	}

	frozen := p.pend != nil || t < p.deadUntil
	p.rate.advance(t, frozen)
	p.ring.push(ev)
	p.occupancy.Set(float64(p.ring.n))
	p.bkgHz.Set(p.rate.rate)

	// Advance the sliding window: events at or before t−W leave it, and so
	// do events before the last alert's window end (the re-arm rule).
	if p.winLo < p.ring.oldest() {
		p.winLo = p.ring.oldest()
	}
	for p.winLo < p.ring.next {
		if at := p.ring.at(p.winLo).ArrivalTime; at > t-p.cfg.WindowSec && at >= p.deadUntil {
			break
		}
		p.winLo++
	}

	if p.pend != nil || t < p.deadUntil {
		return
	}
	count := int(p.ring.next - p.winLo)
	expect := p.rate.rate * p.cfg.WindowSec
	if float64(count) > expect+p.cfg.SigmaThreshold*math.Sqrt(math.Max(expect, 1)) {
		trig := p.ring.at(p.winLo).ArrivalTime
		p.pend = &pending{
			trig:     trig,
			deadline: trig + p.cfg.BurstWindowSec,
			count:    count,
			rate:     p.rate.rate,
		}
		p.cfg.Metrics.Counter(CtrTriggers).Inc()
	}
}

// fire localizes the pending burst window and emits the alert.
func (p *Processor) fire() {
	pb := p.pend
	p.pend = nil
	p.deadUntil = pb.deadline

	opts := pipeline.DefaultOptions()
	opts.Recon = p.cfg.Recon
	opts.Loc = p.cfg.Loc
	opts.Bundle = p.cfg.Bundle
	opts.MaxNNIters = p.cfg.MaxNNIters
	opts.Workers = p.cfg.Workers
	opts.Metrics = p.cfg.Metrics
	opts.BkgOverride = p.cfg.BkgOverride

	m := p.cfg.Metrics
	stop := m.StartStage(StageLocalize)
	res := pipeline.RunWindow(opts, p.ring.snapshot(),
		pb.trig-p.cfg.PreTriggerSec, pb.deadline, p.root.Split(uint64(p.seq)+1))
	stop()

	expect := pb.rate * p.cfg.WindowSec
	alert := Alert{
		Seq:              p.seq,
		TriggerTime:      pb.trig,
		Significance:     (float64(pb.count) - expect) / math.Sqrt(math.Max(expect, 1)),
		BackgroundRateHz: pb.rate,
		NEvents:          countWindow(p.ring, pb.trig-p.cfg.PreTriggerSec, pb.deadline),
		Result:           res,
	}
	if p.cfg.SkyMap && res.Loc.OK {
		rings, probs := pipeline.ProductRings(opts, &res)
		sopts := p.cfg.SkyMapOpts
		if sopts.Workers == 0 {
			sopts.Workers = p.cfg.Workers
		}
		pm := skymap.FromRings(&p.cfg.Loc, rings, probs, sopts)
		alert.SkyMapPayload = pm.Encode()
		alert.Area68Deg2 = float64(pm.Area68)
		alert.Area90Deg2 = float64(pm.Area90)
	}
	p.seq++
	select {
	case p.alerts <- alert:
		m.Counter(CtrAlerts).Inc()
	default:
		m.Counter(CtrAlertsDropped).Inc()
	}
}

// Run feeds a recorded exposure through a new processor built from cfg and
// returns every alert in Seq order. events must be in arrival order, as a
// feed or a journal would deliver them. Under the re-arm rule consecutive
// trigger times are at least BurstWindowSec apart, so Run sizes the alert
// channel from the events' time span and never drops an alert.
func Run(cfg Config, events []*detector.Event) []Alert {
	cfg = cfg.withDefaults()
	cfg.AlertBuffer = maxAlerts(events, cfg.BurstWindowSec)
	p := New(cfg)
	for _, ev := range events {
		p.Ingest(ev)
	}
	p.Close()
	alerts := make([]Alert, 0, len(p.alerts))
	for a := range p.alerts {
		alerts = append(alerts, a)
	}
	return alerts
}

// maxAlerts bounds the alerts events can raise: every trigger time is a
// distinct event time, at least burstSec after the previous one.
func maxAlerts(events []*detector.Event, burstSec float64) int {
	if len(events) == 0 {
		return 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ev := range events {
		lo = math.Min(lo, ev.ArrivalTime)
		hi = math.Max(hi, ev.ArrivalTime)
	}
	if span := (hi - lo) / burstSec; span < float64(len(events)) {
		return int(span) + 2
	}
	return len(events)
}

// countWindow counts retained events with arrival time in [t0, t1).
func countWindow(r *ring, t0, t1 float64) int {
	n := 0
	for seq := r.oldest(); seq != r.next; seq++ {
		if t := r.at(seq).ArrivalTime; t >= t0 && t < t1 {
			n++
		}
	}
	return n
}

// ReplayJournal feeds every event recorded in the flight journal at dir
// through p in append order, then closes p. It returns the number of
// events replayed. Alerts appear on p.Alerts exactly as in the recorded
// session (drain them concurrently).
func ReplayJournal(dir string, p *Processor) (int, error) {
	n := 0
	err := flightlog.Replay(dir, func(payload []byte) error {
		events, err := evio.Unmarshal(payload)
		if err != nil {
			return err
		}
		for _, ev := range events {
			p.Ingest(ev)
			n++
		}
		return nil
	})
	p.Close()
	return n, err
}
