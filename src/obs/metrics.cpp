#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/rolling.hpp"

namespace netpart::obs {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Bucket index for a histogram sample: 0 for values < 1, otherwise
/// 1 + floor(log2(value)), clamped to the last (open-ended) bucket.
std::size_t bucket_index(double value) {
  if (!(value >= 1.0)) return 0;  // also catches NaN
  const auto exponent = static_cast<std::size_t>(std::floor(std::log2(value)));
  return std::min(exponent + 1, kHistogramBuckets - 1);
}

/// Nominal lower bound of bucket b (before clamping to observed min/max).
double bucket_lower(std::size_t b) {
  return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
}

/// `{"count":N,"sum":...,"min":...,"max":...,"buckets":[...]}` — shared by
/// the cumulative-histogram and rolling-window sections of to_json().
void append_histogram_body(std::string& out, const HistogramEntry& h) {
  out += "{\"count\":";
  out += std::to_string(h.count);
  out += ",\"sum\":";
  json_append_number(out, h.sum);
  out += ",\"min\":";
  json_append_number(out, h.min);
  out += ",\"max\":";
  json_append_number(out, h.max);
  out += ",\"buckets\":[";
  // Trailing empty buckets are elided to keep records compact.
  std::size_t last = h.buckets.size();
  while (last > 0 && h.buckets[last - 1] == 0) --last;
  for (std::size_t b = 0; b < last; ++b) {
    if (b > 0) out += ',';
    out += std::to_string(h.buckets[b]);
  }
  out += "]}";
}

void append_span_json(std::string& out, const SpanNode& node) {
  out += R"({"name":")";
  out += json_escape(node.name);
  out += R"(","wall_ms":)";
  json_append_number(out, node.wall_ms);
  out += ",\"count\":";
  out += std::to_string(node.count);
  out += ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ',';
    append_span_json(out, node.children[i]);
  }
  out += "]}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void json_append_number(std::string& out, double value) {
  // Shortest round-trippable representation of a double that is still valid
  // JSON (no bare NaN/Inf — those become null).
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // Trim to the shortest form that parses back exactly.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) {
      out += shorter;
      return;
    }
  }
  out += buffer;
}

double HistogramEntry::quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double remaining = q * static_cast<double>(count);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket <= 0.0) continue;
    if (remaining > in_bucket) {
      remaining -= in_bucket;
      continue;
    }
    // Interpolate linearly inside the bucket, with its nominal [lo, hi)
    // range tightened by the observed min/max.
    double lo = std::max(bucket_lower(b), min);
    double hi = b + 1 < kHistogramBuckets ? bucket_lower(b + 1) : max;
    hi = std::min(hi, max);
    lo = std::min(lo, hi);
    const double fraction = remaining / in_bucket;
    return std::clamp(lo + fraction * (hi - lo), min, max);
  }
  return max;
}

void histogram_record(HistogramEntry& h, double value) {
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[bucket_index(value)];
}

std::int64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const CounterEntry& entry : counters)
    if (entry.name == name) return entry.value;
  return 0;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out += R"({"label":")";
  out += json_escape(run_label);
  out += R"(","spans":[)";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    append_span_json(out, spans[i]);
  }
  out += R"(],"counters":{)";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(counters[i].name);
    out += "\":";
    out += std::to_string(counters[i].value);
  }
  out += R"(},"gauges":{)";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(gauges[i].name);
    out += "\":";
    json_append_number(out, gauges[i].value);
  }
  out += R"(},"histograms":{)";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramEntry& h = histograms[i];
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(h.name);
    out += "\":";
    append_histogram_body(out, h);
  }
  out += R"(},"rolling":{)";
  for (std::size_t i = 0; i < rolling.size(); ++i) {
    const RollingEntry& r = rolling[i];
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(r.name);
    out += R"(":{"window_ms":)";
    out += std::to_string(r.window_ms);
    out += ",\"p50\":";
    json_append_number(out, r.window.quantile(0.50));
    out += ",\"p90\":";
    json_append_number(out, r.window.quantile(0.90));
    out += ",\"p99\":";
    json_append_number(out, r.window.quantile(0.99));
    out += ",\"window\":";
    append_histogram_body(out, r.window);
    out += '}';
  }
  out += '}';
  if (!profile.empty()) {
    out += ",\"profile\":";
    out += profile.to_json();
  }
  out += '}';
  return out;
}

/// Rolling histograms plus the window geometry new ones are created with.
struct MetricsRegistry::RollingState {
  RollingConfig config;
  std::map<std::string, RollingHistogram, std::less<>> histograms;
};

MetricsRegistry::MetricsRegistry()
    : rolling_(std::make_unique<RollingState>()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::set_enabled(bool enabled) {
  if (enabled) {
    // The enabling thread owns the trace tree; spans from other threads
    // (pool workers) are dropped so the tree shape stays deterministic.
    const std::lock_guard<std::mutex> lock(mutex_);
    span_owner_ = std::this_thread::get_id();
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  run_label_.clear();
  roots_.clear();
  open_path_.clear();
  open_start_ms_.clear();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  rolling_->histograms.clear();  // window geometry survives the reset
}

void MetricsRegistry::set_run_label(std::string label) {
  const std::lock_guard<std::mutex> lock(mutex_);
  run_label_ = std::move(label);
}

void MetricsRegistry::add_counter(std::string_view name, std::int64_t delta) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end())
    it->second += delta;
  else
    counters_.emplace(std::string(name), delta);
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end())
    it->second = value;
  else
    gauges_.emplace(std::string(name), value);
}

void MetricsRegistry::record_histogram(std::string_view name, double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = histograms_.try_emplace(std::string(name));
  if (inserted) it->second.name = it->first;
  histogram_record(it->second, value);
}

void MetricsRegistry::record_rolling(std::string_view name, double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  record_rolling_locked(std::string(name), value);
}

void MetricsRegistry::record_rolling_locked(const std::string& name,
                                            double value) {
  const auto it =
      rolling_->histograms.try_emplace(name, rolling_->config).first;
  it->second.record(value, static_cast<std::int64_t>(now_ms()));
}

void MetricsRegistry::configure_rolling(std::int64_t window_ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  rolling_->config = RollingConfig{window_ms};
  rolling_->histograms.clear();  // old epochs no longer line up
}

void MetricsRegistry::set_rolling_spans(bool enabled) {
  const std::lock_guard<std::mutex> lock(mutex_);
  rolling_spans_ = enabled;
}

void MetricsRegistry::begin_span(std::string_view name) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (std::this_thread::get_id() != span_owner_) {
    // Worker-thread spans are dropped to keep the tree deterministic, but
    // never silently: the count surfaces in every JSON/Prometheus export.
    // (The matching end_span is not counted — one drop per span.)
    ++counters_["obs.dropped_spans"];
    return;
  }
  // Walk to the innermost open node.
  std::vector<SpanNode>* children = &roots_;
  for (const std::size_t index : open_path_)
    children = &(*children)[index].children;
  // Merge with an existing sibling of the same name, else append.
  std::size_t index = children->size();
  for (std::size_t i = 0; i < children->size(); ++i)
    if ((*children)[i].name == name) {
      index = i;
      break;
    }
  if (index == children->size()) {
    SpanNode node;
    node.name = std::string(name);
    children->push_back(std::move(node));
  }
  open_path_.push_back(index);
  open_start_ms_.push_back(now_ms());
}

void MetricsRegistry::end_span() {
  // Deliberately NOT gated on enabled(): a ScopedSpan that observed the
  // registry enabled at construction must always balance its begin_span,
  // even if the registry was disabled mid-scope.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (std::this_thread::get_id() != span_owner_) return;  // worker thread
  if (open_path_.empty()) return;  // reset() mid-span, or unbalanced call
  SpanNode* node = nullptr;
  std::vector<SpanNode>* children = &roots_;
  for (const std::size_t index : open_path_) {
    node = &(*children)[index];
    children = &node->children;
  }
  const double elapsed_ms = now_ms() - open_start_ms_.back();
  node->wall_ms += elapsed_ms;
  ++node->count;
  open_path_.pop_back();
  open_start_ms_.pop_back();
  // Windowed per-phase latency (see set_rolling_spans).
  if (rolling_spans_ && enabled())
    record_rolling_locked("phase." + node->name, elapsed_ms);
}

std::int64_t MetricsRegistry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.run_label = run_label_;
  snap.spans = roots_;  // deep copy
  // Open spans have not accumulated their current activation yet; credit
  // the partial elapsed time so mid-run snapshots are honest.
  {
    std::vector<SpanNode>* children = &snap.spans;
    const double now = now_ms();
    for (std::size_t depth = 0; depth < open_path_.size(); ++depth) {
      SpanNode& node = (*children)[open_path_[depth]];
      node.wall_ms += now - open_start_ms_[depth];
      ++node.count;
      children = &node.children;
    }
  }
  snap.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_)
    snap.counters.push_back({name, value});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, value] : gauges_)
    snap.gauges.push_back({name, value});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, entry] : histograms_)
    snap.histograms.push_back(entry);
  snap.rolling.reserve(rolling_->histograms.size());
  const auto now = static_cast<std::int64_t>(now_ms());
  for (const auto& [name, hist] : rolling_->histograms) {
    RollingEntry entry;
    entry.name = name;
    entry.window_ms = hist.window_ms();
    entry.window = hist.merged(now);
    snap.rolling.push_back(std::move(entry));
  }
  snap.profile = Profiler::instance().snapshot();
  return snap;
}

bool enable_from_env() {
  const char* path = std::getenv("NETPART_METRICS_OUT");
  if (path == nullptr || *path == '\0') return false;
  MetricsRegistry::instance().set_enabled(true);
  return true;
}

void export_to_env_file(std::string_view label) {
  const char* path = std::getenv("NETPART_METRICS_OUT");
  if (path == nullptr || *path == '\0') return;
  MetricsRegistry& registry = MetricsRegistry::instance();
  MetricsSnapshot snap = registry.snapshot();
  if (snap.run_label.empty()) snap.run_label = std::string(label);
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  out << snap.to_json() << '\n';
}

}  // namespace netpart::obs
