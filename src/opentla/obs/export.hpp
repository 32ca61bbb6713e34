// opentla/obs/export.hpp
//
// Machine-facing export for the obs registry: an OpenMetrics/Prometheus
// text exposition of a Snapshot (what `tlacheck --metrics-out` writes;
// diff two files in CI, or hand one to a collector).

#pragma once

#include <string>

#include "opentla/obs/obs.hpp"

namespace opentla::obs {

/// OpenMetrics text exposition: counters as `opentla_<name>_total`,
/// gauges and levels as `opentla_<name>`, labeled counters with their
/// label key, histograms with cumulative `le` buckets ending at "+Inf",
/// the derived `opentla_bytes_per_state` and `opentla_waste_ratio`
/// (candidates_generated / candidates_kept, Snapshot::waste_ratio) gauges,
/// and a terminating `# EOF` line.
std::string render_openmetrics(const Snapshot& snap);

/// Escapes a value for an OpenMetrics label position (backslash, quote,
/// and newline).
std::string openmetrics_escape(const std::string& s);

}  // namespace opentla::obs
