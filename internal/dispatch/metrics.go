package dispatch

import "repro/internal/telemetry"

// Metrics is the dispatcher's instrument set. Unlike the serving stack,
// where one Server owns one registry for its whole lifetime, dispatch
// runs are transient — a coordinator may execute several sweeps in one
// process — so the instruments are created once with NewMetrics and
// handed to every Run via Options.Metrics; counters then accumulate
// across runs on the same registry without re-registration panics.
//
// A nil *Metrics is valid everywhere and records nothing, so library
// callers that don't scrape pay only a nil check per event.
type Metrics struct {
	registry       *telemetry.Registry
	cellsCompleted *telemetry.CounterVec // lane
	retries        *telemetry.CounterVec // lane
	resubmits      *telemetry.CounterVec // lane
	failovers      *telemetry.Counter
	deadLanes      *telemetry.Counter
	cellsRemaining *telemetry.Gauge
}

// NewMetrics registers the dispatch instruments on reg. Call once per
// registry; the returned Metrics may be shared by any number of
// sequential or concurrent Runs.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		registry: reg,
		cellsCompleted: reg.CounterVec("als_dispatch_cells_completed_total",
			"Sweep cells finished, by lane (worker URL).", "lane"),
		retries: reg.CounterVec("als_dispatch_retries_total",
			"Transport-level failures that were retried, by lane.", "lane"),
		resubmits: reg.CounterVec("als_dispatch_resubmits_total",
			"Cells requeued after a worker forgot or cancelled them, by lane.", "lane"),
		failovers: reg.Counter("als_dispatch_failovers_total",
			"Cells a dead lane handed back for rescheduling."),
		deadLanes: reg.Counter("als_dispatch_dead_lanes_total",
			"Lanes that exhausted their retry budget."),
		cellsRemaining: reg.Gauge("als_dispatch_cells_remaining",
			"Unfinished cells of the dispatch run(s) in flight."),
	}
}

// Registry is the registry the instruments live on (nil for a nil
// Metrics), so a coordinator embedded in the same run can put its own
// instruments next to them.
func (m *Metrics) Registry() *telemetry.Registry {
	if m == nil {
		return nil
	}
	return m.registry
}

func (m *Metrics) runStarted(pending int) {
	if m != nil {
		m.cellsRemaining.Add(int64(pending))
	}
}

func (m *Metrics) runEnded(leftover int64) {
	if m != nil {
		m.cellsRemaining.Add(-leftover)
	}
}

// cellCompleted counts a cell under the lane that finished it — a worker
// URL for the coordinator's lanes, the client's base URL for Run's.
func (m *Metrics) cellCompleted(lane string) {
	if m != nil {
		m.cellsCompleted.With(lane).Inc()
	}
}

// cellPublished retires one cell of a Run from the remaining gauge.
func (m *Metrics) cellPublished() {
	if m != nil {
		m.cellsRemaining.Dec()
	}
}

func (m *Metrics) retried(lane string) {
	if m != nil {
		m.retries.With(lane).Inc()
	}
}

func (m *Metrics) resubmitted(lane string) {
	if m != nil {
		m.resubmits.With(lane).Inc()
	}
}

func (m *Metrics) laneDead(failedOver int) {
	if m != nil {
		m.deadLanes.Inc()
		m.failovers.Add(int64(failedOver))
	}
}
