#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field_array(std::string_view k,
                                    const std::vector<double>& v) {
  key(k);
  begin_array();
  for (const double x : v) value(x);
  return end_array();
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::string trace,
                      std::int32_t parent)
    : log_(log), start_(Clock::now()) {
  if (log_ == nullptr) return;
  id_ = static_cast<std::int32_t>(log_->spans_.size());
  Span span;
  span.name = std::move(name);
  span.trace = std::move(trace);
  span.parent = parent;
  span.start_us = 1e3 * ms_between(log_->origin_, start_);
  log_->spans_.push_back(std::move(span));
}

double SpanLog::Scope::close() {
  const auto end = Clock::now();
  if (log_ != nullptr && id_ >= 0)
    log_->spans_[static_cast<std::size_t>(id_)].end_us =
        1e3 * ms_between(log_->origin_, end);
  return ms_between(start_, end);
}

std::string SpanLog::json() const {
  JsonWriter w;
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object()
        .field("name", s.name)
        .field("trace", s.trace)
        .field("parent", s.parent)
        .field("start_us", s.start_us)
        .field("end_us", s.end_us)
        .end_object();
  }
  w.end_array();
  return w.str();
}

EcoEdits::EcoEdits(const netpart::Hypergraph& h)
    : h_(h),
      degree_(static_cast<std::size_t>(h.num_modules())),
      removed_(static_cast<std::size_t>(h.num_nets()), 0) {
  for (netpart::ModuleId m = 0; m < h.num_modules(); ++m)
    degree_[static_cast<std::size_t>(m)] =
        static_cast<std::int32_t>(h.nets_of(m).size());
}

std::string EcoEdits::next(const std::string& name, std::int64_t window,
                           Rng& rng) {
  if (rng.unit() < 0.3) {
    for (int tries = 0; tries < 64; ++tries) {
      const std::int64_t net = rng.below(h_.num_nets());
      if (removed_[static_cast<std::size_t>(net)]) continue;
      const auto pins = h_.pins(static_cast<netpart::NetId>(net));
      if (std::any_of(pins.begin(), pins.end(), [&](netpart::ModuleId m) {
            return degree_[static_cast<std::size_t>(m)] < 3;
          }))
        continue;
      removed_[static_cast<std::size_t>(net)] = 1;
      for (const netpart::ModuleId m : pins)
        --degree_[static_cast<std::size_t>(m)];
      return "remove-net n" + std::to_string(net) + "\n";
    }
  }
  const std::int64_t n = h_.num_modules();
  const std::int64_t center = rng.below(n);
  const std::int64_t pins = 2 + rng.below(3);
  std::string line = "add-net " + name;
  std::vector<std::int64_t> used;
  while (static_cast<std::int64_t>(used.size()) < pins) {
    const std::int64_t m = std::clamp<std::int64_t>(
        center + rng.below(window) - window / 2, 0, n - 1);
    if (std::find(used.begin(), used.end(), m) != used.end()) continue;
    used.push_back(m);
    ++degree_[static_cast<std::size_t>(m)];
    line += ' ';
    line += std::to_string(m);
  }
  return line + '\n';
}

void Checks::require(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (messages.size() < 20) messages.push_back(what);
}

void Checks::write(JsonWriter& w) const {
  w.key("checks")
      .begin_object()
      .field("attempted", attempted)
      .field("failed", failed)
      .key("messages")
      .begin_array();
  for (const std::string& m : messages) w.value(m);
  w.end_array().end_object();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double peak_rss_mb(pid_t pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kb = std::strtod(line.c_str() + 6, nullptr);
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
