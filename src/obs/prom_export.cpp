#include "obs/prom_export.hpp"

#include <cmath>
#include <set>
#include <vector>

namespace netpart::obs {

namespace {

/// Prometheus sample value: the JSON exporter's shortest round-trippable
/// decimal, except that non-finite values use the exposition tokens
/// (+Inf/-Inf/NaN) where JSON writes null.
void append_prom_number(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  json_append_number(out, value);
}

/// Emits one metric family, refusing duplicates: exposition format forbids
/// two families with the same name, which sanitization can produce.
class Exposition {
 public:
  explicit Exposition(std::string_view prefix) : prefix_(prefix) {}

  /// Claim `family` (already sanitized, prefix included); false if a
  /// previous entry owns the name — the caller must then skip its samples.
  bool begin_family(const std::string& family, std::string_view type,
                    std::string_view help) {
    if (!emitted_.insert(family).second) return false;
    out_ += "# HELP ";
    out_ += family;
    out_ += ' ';
    out_ += help_escape(help);
    out_ += "\n# TYPE ";
    out_ += family;
    out_ += ' ';
    out_ += type;
    out_ += '\n';
    return true;
  }

  void sample(std::string_view name, std::string_view labels, double value) {
    out_ += name;
    out_ += labels;
    out_ += ' ';
    append_prom_number(out_, value);
    out_ += '\n';
  }

  /// Like sample(), with an OpenMetrics-style exemplar annotation appended
  /// after the value (` # {trace_id="..."} value timestamp`).  Classic
  /// text-format parsers treat everything after `#` on a sample line as a
  /// comment, so this stays backward compatible.
  void sample_annotated(std::string_view name, std::string_view labels,
                        double value, std::string_view annotation) {
    out_ += name;
    out_ += labels;
    out_ += ' ';
    append_prom_number(out_, value);
    out_ += annotation;
    out_ += '\n';
  }

  void sample_int(std::string_view name, std::string_view labels,
                  std::int64_t value) {
    out_ += name;
    out_ += labels;
    out_ += ' ';
    out_ += std::to_string(value);
    out_ += '\n';
  }

  [[nodiscard]] std::string family_name(std::string_view metric,
                                        std::string_view suffix = {}) const {
    std::string out = prefix_;
    out += '_';
    out += prom_sanitize(metric);
    out += suffix;
    return out;
  }

  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  static std::string help_escape(std::string_view help) {
    std::string out;
    out.reserve(help.size());
    for (const char c : help) {
      if (c == '\\') out += "\\\\";
      else if (c == '\n') out += "\\n";
      else out += c;
    }
    return out;
  }

  std::string prefix_;
  std::set<std::string> emitted_;
  std::string out_;
};

/// Upper bound of log2 bucket b as an exposition `le` label: bucket 0 ends
/// at 1, bucket b at 2^b; the last bucket is open-ended (+Inf only).
std::string bucket_le(std::size_t b) {
  return std::to_string(static_cast<std::int64_t>(1) << b);
}

void emit_histogram(Exposition& expo, const std::string& family,
                    const HistogramEntry& h, std::string_view original) {
  if (!expo.begin_family(family, "histogram", original)) return;
  std::int64_t cumulative = 0;
  // Elide the all-zero tail but keep at least the first bucket so the
  // family always has a concrete le sample before +Inf.
  std::size_t last = kHistogramBuckets - 1;  // open-ended: +Inf only
  while (last > 1 && h.buckets[last - 1] == 0) --last;
  for (std::size_t b = 0; b < last; ++b) {
    cumulative += h.buckets[b];
    expo.sample_int(family + "_bucket", "{le=\"" + bucket_le(b) + "\"}",
                    cumulative);
  }
  expo.sample_int(family + "_bucket", "{le=\"+Inf\"}", h.count);
  expo.sample(family + "_sum", "", h.sum);
  expo.sample_int(family + "_count", "", h.count);
}

void emit_summary(Exposition& expo, const std::string& family,
                  const RollingEntry& r, std::string_view original) {
  if (!expo.begin_family(family, "summary", original)) return;
  for (const double q : {0.5, 0.9, 0.99}) {
    std::string labels = "{quantile=\"";
    append_prom_number(labels, q);
    labels += "\"}";
    // The p99 sample carries the exemplar (when the producer attached one)
    // so a dashboard's tail-latency panel links to a concrete trace_id.
    if (q == 0.99 && !r.exemplar_trace_id.empty()) {
      std::string annotation = " # {trace_id=\"";
      annotation += prom_escape_label(r.exemplar_trace_id);
      annotation += "\"} ";
      append_prom_number(annotation, r.exemplar_value);
      annotation += ' ';
      append_prom_number(annotation,
                         static_cast<double>(r.exemplar_ts_ms) / 1000.0);
      expo.sample_annotated(family, labels, r.window.quantile(q), annotation);
    } else {
      expo.sample(family, labels, r.window.quantile(q));
    }
  }
  expo.sample(family + "_sum", "", r.window.sum);
  expo.sample_int(family + "_count", "", r.window.count);
}

void flatten_spans(const std::vector<SpanNode>& nodes, const std::string& path,
                   std::vector<const SpanNode*>& out_nodes,
                   std::vector<std::string>& out_paths) {
  for (const SpanNode& node : nodes) {
    const std::string node_path =
        path.empty() ? node.name : path + "/" + node.name;
    out_nodes.push_back(&node);
    out_paths.push_back(node_path);
    flatten_spans(node.children, node_path, out_nodes, out_paths);
  }
}

}  // namespace

std::string prom_sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) return "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

std::string prom_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot,
                          std::string_view prefix) {
  Exposition expo(prefix);

  if (!snapshot.run_label.empty()) {
    const std::string family = expo.family_name("run_info");
    if (expo.begin_family(family, "gauge", "run label")) {
      expo.sample_int(
          family, "{label=\"" + prom_escape_label(snapshot.run_label) + "\"}",
          1);
    }
  }

  for (const CounterEntry& c : snapshot.counters) {
    const std::string family = expo.family_name(c.name, "_total");
    if (expo.begin_family(family, "counter", c.name))
      expo.sample_int(family, "", c.value);
  }

  for (const GaugeEntry& g : snapshot.gauges) {
    const std::string family = expo.family_name(g.name);
    if (expo.begin_family(family, "gauge", g.name))
      expo.sample(family, "", g.value);
  }

  for (const HistogramEntry& h : snapshot.histograms)
    emit_histogram(expo, expo.family_name(h.name), h, h.name);

  for (const RollingEntry& r : snapshot.rolling)
    emit_summary(expo, expo.family_name(r.name), r, r.name);

  // The span tree flattens into two gauge families labelled by tree path;
  // wall time and activation count per distinct phase node.
  if (!snapshot.spans.empty()) {
    std::vector<const SpanNode*> nodes;
    std::vector<std::string> paths;
    flatten_spans(snapshot.spans, "", nodes, paths);
    const std::string wall = expo.family_name("phase_wall_ms");
    if (expo.begin_family(wall, "gauge",
                          "accumulated span wall time by tree path")) {
      for (std::size_t i = 0; i < nodes.size(); ++i)
        expo.sample(wall, "{path=\"" + prom_escape_label(paths[i]) + "\"}",
                    nodes[i]->wall_ms);
    }
    const std::string runs = expo.family_name("phase_runs");
    if (expo.begin_family(runs, "gauge",
                          "span activation count by tree path")) {
      for (std::size_t i = 0; i < nodes.size(); ++i)
        expo.sample_int(runs, "{path=\"" + prom_escape_label(paths[i]) + "\"}",
                        nodes[i]->count);
    }
  }

  return std::move(expo).take();
}

}  // namespace netpart::obs
