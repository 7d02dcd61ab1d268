// The coordinator's instrument set. The cluster metric names are part of
// the frozen exposition contract: they are appended to
// internal/service/testdata/metrics_v1.txt (never reordered, never
// renamed) and pinned by TestClusterMetricNamesFrozen, exactly like the
// service names before them. The dispatch lane instruments
// (als_dispatch_*) register on the same registry via dispatch.NewMetrics,
// so one /metrics scrape covers intake, scheduling and delivery.
package coord

import (
	"repro/internal/dispatch"
	"repro/internal/telemetry"
)

// clusterMetricNames is the frozen registration order of the
// coordinator-specific instruments — the tail of metrics_v1.txt.
var clusterMetricNames = []string{
	"als_cluster_workers",
	"als_cluster_heartbeats_total",
	"als_cluster_workers_expired_total",
	"als_cluster_steals_total",
	"als_cluster_queue_depth",
	"als_webhook_deliveries_total",
	"als_webhook_retries_total",
}

type coordMetrics struct {
	registry *telemetry.Registry
	dispatch *dispatch.Metrics

	workers    *telemetry.Gauge
	heartbeats *telemetry.Counter
	expired    *telemetry.Counter
	steals     *telemetry.Counter
	queueDepth *telemetry.GaugeVec // tenant
	deliveries *telemetry.Counter
	retries    *telemetry.Counter
}

// newCoordMetrics registers the cluster instruments on reg (a private
// registry when nil), followed by the dispatch lane instruments unless dm
// already holds them.
func newCoordMetrics(reg *telemetry.Registry, dm *dispatch.Metrics) *coordMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &coordMetrics{
		registry: reg,
		workers: reg.Gauge("als_cluster_workers",
			"Registered workers currently live (heartbeating)."),
		heartbeats: reg.Counter("als_cluster_heartbeats_total",
			"Worker heartbeats received."),
		expired: reg.Counter("als_cluster_workers_expired_total",
			"Workers drained after missing heartbeats or dying mid-lane."),
		steals: reg.Counter("als_cluster_steals_total",
			"Cells reassigned to a different worker than last held them."),
		queueDepth: reg.GaugeVec("als_cluster_queue_depth",
			"Cells waiting in the cluster queue, by tenant.", "tenant"),
		deliveries: reg.Counter("als_webhook_deliveries_total",
			"Webhook envelopes acknowledged (2xx) by subscribers."),
		retries: reg.Counter("als_webhook_retries_total",
			"Webhook delivery attempts that failed and were retried."),
		dispatch: dm,
	}
	if m.dispatch == nil {
		m.dispatch = dispatch.NewMetrics(reg)
	}
	return m
}
