// Prometheus text exposition (format version 0.0.4) for the metrics
// tier.
//
// The registry's dot-separated instrument names ("gr.par.batch_nets",
// "serve.op.run.latency") are sanitized into the Prometheus name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* by mapping every illegal character
// to '_' (and prefixing '_' when the first character is a digit).
// Counters render as `# TYPE <name> counter`, gauges as gauges, and
// histograms as the conventional triplet: cumulative `<name>_bucket`
// series with `le` labels (one per bound plus `le="+Inf"`),
// `<name>_sum`, and `<name>_count`.  Output is sorted by instrument
// name within each instrument class (MetricsSnapshot stores maps), so
// the payload is deterministic — the golden fixture test diffs it
// byte-for-byte.
//
// This is a pure renderer over a MetricsSnapshot: no HTTP listener
// lives in-process.  The serve daemon exposes the payload through the
// `metrics` op (docs/serve.md) and the CLI through `crp run
// --metrics-out`; an external scraper bridges either to Prometheus.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace crp::obs {

/// Maps an instrument name into the Prometheus metric-name grammar.
std::string sanitizeMetricName(const std::string& name);

/// Renders every instrument of the snapshot as Prometheus exposition
/// text.  `prefix` (sanitized like the names) is prepended to every
/// metric name separated by '_' when non-empty — the serve daemon uses
/// it to keep server-wide and per-session series distinguishable.
std::string renderPrometheus(const MetricsSnapshot& snapshot,
                             const std::string& prefix = "");

/// snapshot() + render.
std::string renderPrometheus(const MetricsRegistry& registry,
                             const std::string& prefix = "");

}  // namespace crp::obs
