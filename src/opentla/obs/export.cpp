#include "opentla/obs/export.hpp"

#include <sstream>

namespace opentla::obs {

std::string openmetrics_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_openmetrics(const Snapshot& snap) {
  std::ostringstream out;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const char* n = name(static_cast<Counter>(i));
    out << "# TYPE opentla_" << n << " counter\n";
    out << "opentla_" << n << "_total " << snap.counters[i] << "\n";
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const char* n = name(static_cast<Gauge>(i));
    out << "# TYPE opentla_" << n << " gauge\n";
    out << "opentla_" << n << " " << snap.gauges[i] << "\n";
  }
  for (std::size_t i = 0; i < kNumLevels; ++i) {
    const char* n = name(static_cast<Level>(i));
    out << "# TYPE opentla_" << n << " gauge\n";
    out << "opentla_" << n << " " << snap.levels[i] << "\n";
  }
  for (std::size_t f = 0; f < kNumLabeledCounters; ++f) {
    const char* n = name(static_cast<LabeledCounter>(f));
    const char* key = label_key(static_cast<LabeledCounter>(f));
    out << "# TYPE opentla_" << n << " counter\n";
    for (std::size_t l = 0; l < snap.labeled[f].size(); ++l) {
      if (snap.labeled[f][l] == 0) continue;
      out << "opentla_" << n << "_total{" << key << "=\""
          << openmetrics_escape(snap.labels[l]) << "\"} " << snap.labeled[f][l] << "\n";
    }
  }
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    const char* n = name(static_cast<Histogram>(h));
    const HistogramSnapshot& hist = snap.hists[h];
    out << "# TYPE opentla_" << n << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      cum += hist.buckets[b];
      if (b + 1 == kHistBuckets) {
        out << "opentla_" << n << "_bucket{le=\"+Inf\"} " << cum << "\n";
      } else {
        // Skip empty interior buckets past the data to keep the
        // exposition short, but always emit le="0" and the +Inf bound.
        if (hist.buckets[b] == 0 && b != 0) continue;
        out << "opentla_" << n << "_bucket{le=\"" << hist_bucket_le(b) << "\"} " << cum
            << "\n";
      }
    }
    out << "opentla_" << n << "_sum " << hist.sum << "\n";
    out << "opentla_" << n << "_count " << hist.count << "\n";
  }
  // Memory accounting: per-domain live/peak gauges, the per-domain
  // allocation-size histograms, and the headline bytes_per_state.
  out << "# TYPE opentla_mem_live_bytes gauge\n";
  for (std::size_t d = 0; d < kNumMemDomains; ++d) {
    out << "opentla_mem_live_bytes{domain=\"" << name(static_cast<MemDomain>(d))
        << "\"} " << snap.mem[d].live_bytes << "\n";
  }
  out << "# TYPE opentla_mem_peak_bytes gauge\n";
  for (std::size_t d = 0; d < kNumMemDomains; ++d) {
    out << "opentla_mem_peak_bytes{domain=\"" << name(static_cast<MemDomain>(d))
        << "\"} " << snap.mem[d].peak_bytes << "\n";
  }
  out << "# TYPE opentla_mem_alloc_size_bytes histogram\n";
  for (std::size_t d = 0; d < kNumMemDomains; ++d) {
    const MemDomainSnapshot& ms = snap.mem[d];
    if (ms.allocs == 0) continue;
    const char* dn = name(static_cast<MemDomain>(d));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      cum += ms.alloc_size_buckets[b];
      if (b + 1 == kHistBuckets) {
        out << "opentla_mem_alloc_size_bytes_bucket{domain=\"" << dn
            << "\",le=\"+Inf\"} " << cum << "\n";
      } else {
        if (ms.alloc_size_buckets[b] == 0 && b != 0) continue;
        out << "opentla_mem_alloc_size_bytes_bucket{domain=\"" << dn << "\",le=\""
            << hist_bucket_le(b) << "\"} " << cum << "\n";
      }
    }
    out << "opentla_mem_alloc_size_bytes_sum{domain=\"" << dn << "\"} "
        << ms.alloc_size_sum << "\n";
    out << "opentla_mem_alloc_size_bytes_count{domain=\"" << dn << "\"} "
        << ms.allocs << "\n";
  }
  out << "# TYPE opentla_mem_tracked_peak_bytes gauge\n";
  out << "opentla_mem_tracked_peak_bytes " << snap.mem_tracked_peak_bytes << "\n";
  out << "# TYPE opentla_bytes_per_state gauge\n";
  out << "opentla_bytes_per_state " << snap.bytes_per_state() << "\n";
  out << "# TYPE opentla_waste_ratio gauge\n";
  out << "opentla_waste_ratio " << snap.waste_ratio() << "\n";
  out << "# EOF\n";
  return out.str();
}

}  // namespace opentla::obs
