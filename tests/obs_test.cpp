#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/prom_export.hpp"
#include "obs/rolling.hpp"
#include "obs/trace_context.hpp"
#include "obs/trace_export.hpp"

namespace netpart::obs {
namespace {

/// RAII guard: every test runs against a clean, enabled registry and leaves
/// it disabled and empty for the next one (the registry is process-wide).
struct RegistryFixture : ::testing::Test {
  void SetUp() override {
    MetricsRegistry::instance().reset();
    MetricsRegistry::instance().set_enabled(true);
  }
  void TearDown() override {
    MetricsRegistry::instance().set_enabled(false);
    MetricsRegistry::instance().reset();
  }
};

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough to round-trip what to_json() emits.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::out_of_range("missing key: " + key);
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      const JsonValue key = string();
      skip_ws();
      expect(':');
      v.object.emplace(key.string, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        v.string += c;
        continue;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string += '"'; break;
        case '\\': v.string += '\\'; break;
        case '/': v.string += '/'; break;
        case 'n': v.string += '\n'; break;
        case 'r': v.string += '\r'; break;
        case 't': v.string += '\t'; break;
        case 'u': {
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          v.string += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
          break;
        }
        default: throw std::runtime_error("bad escape");
      }
    }
    ++pos_;
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  JsonValue null() {
    if (text_.substr(pos_, 4) != "null") throw std::runtime_error("bad null");
    pos_ += 4;
    return {};
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad number");
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Span tree
// ---------------------------------------------------------------------------

TEST_F(RegistryFixture, NestedSpansFormATree) {
  MetricsRegistry& r = MetricsRegistry::instance();
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
      ScopedSpan innermost("innermost");
      (void)innermost;
    }
    ScopedSpan sibling("sibling");
    (void)sibling;
  }
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  const SpanNode& outer = snap.spans.front();
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1);
  EXPECT_GE(outer.wall_ms, 0.0);
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0].name, "inner");
  EXPECT_EQ(outer.children[1].name, "sibling");
  ASSERT_EQ(outer.children[0].children.size(), 1u);
  EXPECT_EQ(outer.children[0].children[0].name, "innermost");
  // A parent's accumulated time includes its children's.
  EXPECT_GE(outer.wall_ms, outer.children[0].wall_ms);
}

TEST_F(RegistryFixture, SameNameSiblingSpansMerge) {
  MetricsRegistry& r = MetricsRegistry::instance();
  {
    ScopedSpan sweep("sweep");
    for (int i = 0; i < 5; ++i) {
      ScopedSpan split("split");
      (void)split;
    }
  }
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  ASSERT_EQ(snap.spans[0].children.size(), 1u);
  EXPECT_EQ(snap.spans[0].children[0].name, "split");
  EXPECT_EQ(snap.spans[0].children[0].count, 5);
}

TEST_F(RegistryFixture, SnapshotCreditsOpenSpans) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.begin_span("still-open");
  const MetricsSnapshot snap = r.snapshot();
  r.end_span();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "still-open");
  EXPECT_EQ(snap.spans[0].count, 1);
  EXPECT_GE(snap.spans[0].wall_ms, 0.0);
  // The registry itself still has the span open: closing it must not
  // double-count (count stays 1 in the final snapshot).
  EXPECT_EQ(r.snapshot().spans[0].count, 1);
}

TEST_F(RegistryFixture, DisableMidScopeKeepsStackBalanced) {
  MetricsRegistry& r = MetricsRegistry::instance();
  {
    ScopedSpan outer("outer");
    r.set_enabled(false);
  }  // destructor must still close "outer"
  r.set_enabled(true);
  {
    ScopedSpan top("top");
    (void)top;
  }
  const MetricsSnapshot snap = r.snapshot();
  // "top" is a root, not a child of a dangling "outer".
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].name, "outer");
  EXPECT_TRUE(snap.spans[0].children.empty());
  EXPECT_EQ(snap.spans[1].name, "top");
}

TEST_F(RegistryFixture, EndSpanWithoutOpenSpanIsNoOp) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.end_span();  // must not crash or underflow
  EXPECT_TRUE(r.snapshot().spans.empty());
}

// ---------------------------------------------------------------------------
// Counters, gauges, histograms
// ---------------------------------------------------------------------------

TEST_F(RegistryFixture, CountersAccumulate) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.add_counter("a.hits", 1);
  r.add_counter("a.hits", 41);
  r.add_counter("b.misses", 7);
  EXPECT_EQ(r.counter("a.hits"), 42);
  EXPECT_EQ(r.counter("b.misses"), 7);
  EXPECT_EQ(r.counter("never.touched"), 0);
  const MetricsSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.counter("a.hits"), 42);
  ASSERT_EQ(snap.counters.size(), 2u);
  // Snapshot entries are sorted by name.
  EXPECT_EQ(snap.counters[0].name, "a.hits");
  EXPECT_EQ(snap.counters[1].name, "b.misses");
}

TEST_F(RegistryFixture, GaugesOverwrite) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.set_gauge("lambda2", 0.25);
  r.set_gauge("lambda2", 0.5);
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.5);
}

TEST_F(RegistryFixture, HistogramBucketsArePowersOfTwo) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.record_histogram("h", 0.5);   // bucket 0: < 1
  r.record_histogram("h", 1.0);   // bucket 1: [1, 2)
  r.record_histogram("h", 3.0);   // bucket 2: [2, 4)
  r.record_histogram("h", 3.9);   // bucket 2
  r.record_histogram("h", 1e12);  // clamped to the open-ended last bucket
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramEntry& h = snap.histograms[0];
  EXPECT_EQ(h.count, 5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 1e12);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 3.0 + 3.9 + 1e12);
  EXPECT_NEAR(h.mean(), h.sum / 5.0, 1e-9);
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.buckets[2], 2);
  EXPECT_EQ(h.buckets[kHistogramBuckets - 1], 1);
}

TEST_F(RegistryFixture, DisabledRegistryRecordsNothing) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.set_enabled(false);
  r.add_counter("c", 1);
  r.set_gauge("g", 1.0);
  r.record_histogram("h", 1.0);
  r.begin_span("s");
  r.end_span();
  NETPART_COUNTER_ADD("macro.c", 1);
  NETPART_GAUGE_SET("macro.g", 1.0);
  NETPART_HISTOGRAM_RECORD("macro.h", 1.0);
  { NETPART_SPAN("macro.s"); }
  r.set_enabled(true);
  EXPECT_TRUE(r.snapshot().empty());
}

TEST_F(RegistryFixture, ResetDropsEverything) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.set_run_label("before");
  r.add_counter("c", 1);
  r.begin_span("open");
  r.reset();
  r.end_span();  // the abandoned span must not resurface
  const MetricsSnapshot snap = r.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_TRUE(snap.run_label.empty());
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

TEST_F(RegistryFixture, MacrosRecordWhenCompiledInAndEnabled) {
  MetricsRegistry& r = MetricsRegistry::instance();
  {
    NETPART_SPAN("macro-span");
    NETPART_COUNTER_ADD("macro.counter", 3);
    NETPART_GAUGE_SET("macro.gauge", 2.5);
    NETPART_HISTOGRAM_RECORD("macro.hist", 4.0);
  }
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "macro-span");
  EXPECT_EQ(snap.counter("macro.counter"), 3);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 2.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1);
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

TEST_F(RegistryFixture, JsonRoundTrip) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.set_run_label("bm1/igmatch");
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
    (void)inner;
  }
  r.add_counter("lanczos.iterations", 160);
  r.set_gauge("fiedler.lambda2", 0.0778551);
  r.record_histogram("repair.cost", 3.0);
  r.record_histogram("repair.cost", 17.0);
  const MetricsSnapshot snap = r.snapshot();

  const JsonValue root = JsonParser(snap.to_json()).parse();
  EXPECT_EQ(root.at("label").string, "bm1/igmatch");

  const JsonValue& spans = root.at("spans");
  ASSERT_EQ(spans.array.size(), 1u);
  EXPECT_EQ(spans.array[0].at("name").string, "outer");
  EXPECT_EQ(spans.array[0].at("count").number, 1.0);
  ASSERT_EQ(spans.array[0].at("children").array.size(), 1u);
  EXPECT_EQ(spans.array[0].at("children").array[0].at("name").string,
            "inner");

  EXPECT_EQ(root.at("counters").at("lanczos.iterations").number, 160.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("fiedler.lambda2").number, 0.0778551);

  const JsonValue& hist = root.at("histograms").at("repair.cost");
  EXPECT_EQ(hist.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 20.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 3.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 17.0);
  // 3 -> bucket 2, 17 -> bucket 5; trailing zero buckets are elided.
  const std::vector<JsonValue>& buckets = hist.at("buckets").array;
  ASSERT_EQ(buckets.size(), 6u);
  EXPECT_EQ(buckets[2].number, 1.0);
  EXPECT_EQ(buckets[5].number, 1.0);
}

TEST_F(RegistryFixture, JsonEscapesControlCharactersAndQuotes) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.set_run_label("a\"b\\c\nd\te\x01f");
  r.add_counter("weird \"name\"", 1);
  const std::string json = r.snapshot().to_json();
  const JsonValue root = JsonParser(json).parse();
  EXPECT_EQ(root.at("label").string, "a\"b\\c\nd\te\x01f");
  EXPECT_EQ(root.at("counters").at("weird \"name\"").number, 1.0);
}

TEST(JsonEscape, Direct) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("q\"q"), "q\\\"q");
  EXPECT_EQ(json_escape("b\\b"), "b\\\\b");
  EXPECT_EQ(json_escape("n\nn"), "n\\nn");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST_F(RegistryFixture, EmptySnapshotSerializesToValidJson) {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  const JsonValue root = JsonParser(snap.to_json()).parse();
  EXPECT_TRUE(root.at("spans").array.empty());
  EXPECT_TRUE(root.at("counters").object.empty());
  EXPECT_TRUE(root.at("gauges").object.empty());
  EXPECT_TRUE(root.at("histograms").object.empty());
}

TEST_F(RegistryFixture, NonFiniteGaugesSerializeAsNull) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.set_gauge("bad", std::numeric_limits<double>::infinity());
  const JsonValue root = JsonParser(r.snapshot().to_json()).parse();
  EXPECT_EQ(root.at("gauges").at("bad").kind, JsonValue::Kind::kNull);
}

// ---------------------------------------------------------------------------
// Quantile estimation
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, PointMassIsExact) {
  // One repeated value: min == max clamp the interpolation to the value
  // itself, so every quantile is exact regardless of its bucket.
  HistogramEntry h;
  for (int i = 0; i < 100; ++i) histogram_record(h, 5.0);
  for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 5.0) << "q=" << q;
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  const HistogramEntry h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, UniformDistributionWithinOneBucketOfTruth) {
  // Uniform over 1..1000: the log2 estimate may be off by at most one
  // bucket, i.e. a factor of two of the true sample quantile.
  HistogramEntry h;
  for (int v = 1; v <= 1000; ++v) histogram_record(h, static_cast<double>(v));
  for (const double q : {0.5, 0.9, 0.99}) {
    const double truth = q * 1000.0;
    const double estimate = h.quantile(q);
    EXPECT_GE(estimate, truth / 2.0) << "q=" << q;
    EXPECT_LE(estimate, truth * 2.0) << "q=" << q;
  }
  // Monotone in q, clamped to the observed range at the ends.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_GE(h.quantile(0.0), h.min);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max);
}

TEST(HistogramQuantile, ClampsOutOfRangeArguments) {
  HistogramEntry h;
  histogram_record(h, 3.0);
  histogram_record(h, 9.0);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

// ---------------------------------------------------------------------------
// Rolling histograms
// ---------------------------------------------------------------------------

TEST(RollingHistogram, WindowDropsOldEpochs) {
  // 1200 ms window in kRollingEpochs (6) epochs of 200 ms, driven by an
  // explicit clock.
  RollingHistogram rh(RollingConfig{1200});
  rh.record(1.0, 0);
  rh.record(2.0, 300);
  EXPECT_EQ(rh.merged(300).count, 2);
  // At t=1300 the epoch holding t=0 has aged out; t=300 is still inside.
  EXPECT_EQ(rh.merged(1300).count, 1);
  EXPECT_DOUBLE_EQ(rh.merged(1300).sum, 2.0);
  // Far future: everything aged out.
  EXPECT_EQ(rh.merged(5000).count, 0);
}

TEST(RollingHistogram, RecordRecyclesStaleSlots) {
  RollingHistogram rh(RollingConfig{1200});
  rh.record(1.0, 0);
  // t=1201 maps to epoch 6 — the same ring slot as epoch 0; the stale
  // contents must be discarded, not merged.
  rh.record(7.0, 1201);
  const HistogramEntry m = rh.merged(1201);
  EXPECT_EQ(m.count, 1);
  EXPECT_DOUBLE_EQ(m.sum, 7.0);
}

TEST(RollingHistogram, MergedTracksMinMaxAcrossEpochs) {
  RollingHistogram rh(RollingConfig{1200});
  rh.record(10.0, 0);
  rh.record(3.0, 300);
  rh.record(90.0, 600);
  const HistogramEntry m = rh.merged(600);
  EXPECT_EQ(m.count, 3);
  EXPECT_DOUBLE_EQ(m.min, 3.0);
  EXPECT_DOUBLE_EQ(m.max, 90.0);
}

TEST_F(RegistryFixture, RecordRollingAppearsInSnapshot) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.configure_rolling(60000);
  r.record_rolling("req.latency", 12.0);
  r.record_rolling("req.latency", 48.0);
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.rolling.size(), 1u);
  EXPECT_EQ(snap.rolling[0].name, "req.latency");
  EXPECT_EQ(snap.rolling[0].window_ms, 60000);
  EXPECT_EQ(snap.rolling[0].window.count, 2);
  const JsonValue root = JsonParser(snap.to_json()).parse();
  const JsonValue& entry = root.at("rolling").at("req.latency");
  EXPECT_EQ(entry.at("window").at("count").number, 2.0);
  EXPECT_GT(entry.at("p99").number, 0.0);
}

TEST_F(RegistryFixture, RollingSpansRecordPhaseLatency) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.set_rolling_spans(true);
  { ScopedSpan span("solve"); }
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.rolling.size(), 1u);
  EXPECT_EQ(snap.rolling[0].name, "phase.solve");
  EXPECT_EQ(snap.rolling[0].window.count, 1);
  r.set_rolling_spans(false);
}

TEST_F(RegistryFixture, RollingSpansOffByDefault) {
  { ScopedSpan span("solve"); }
  EXPECT_TRUE(MetricsRegistry::instance().snapshot().rolling.empty());
}

// ---------------------------------------------------------------------------
// Deterministic exports
// ---------------------------------------------------------------------------

TEST_F(RegistryFixture, RepeatedExportsAreByteIdentical) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.set_run_label("determinism");
  r.add_counter("z.last", 3);
  r.add_counter("a.first", 1);
  r.set_gauge("mid.gauge", 2.5);
  r.record_histogram("hist", 7.0);
  r.record_rolling("roll", 4.0);
  { ScopedSpan outer("outer"); ScopedSpan inner("inner"); }

  const MetricsSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.to_json(), snap.to_json());
  EXPECT_EQ(to_prometheus(snap), to_prometheus(snap));
  EXPECT_EQ(to_chrome_trace(snap), to_chrome_trace(snap));
  // A second snapshot of the unchanged registry exports identically too.
  const MetricsSnapshot again = r.snapshot();
  EXPECT_EQ(snap.to_json(), again.to_json());
  EXPECT_EQ(to_prometheus(snap), to_prometheus(again));
  // Sorted sections: the counter added last sorts first.
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "z.last");
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(PromExport, SanitizeAndEscape) {
  EXPECT_EQ(prom_sanitize("fm.passes"), "fm_passes");
  EXPECT_EQ(prom_sanitize("ok_name:sub"), "ok_name:sub");
  EXPECT_EQ(prom_sanitize("1bad"), "_1bad");
  EXPECT_EQ(prom_sanitize(""), "_");
  EXPECT_EQ(prom_sanitize("sp ace\n"), "sp_ace_");
  EXPECT_EQ(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST_F(RegistryFixture, PrometheusCountersAndGauges) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.add_counter("fm.passes", 4);
  r.set_gauge("queue.depth", 2.0);
  const std::string body = to_prometheus(r.snapshot());
  EXPECT_NE(body.find("# TYPE netpart_fm_passes_total counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_fm_passes_total 4\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE netpart_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_queue_depth 2\n"), std::string::npos);
}

TEST_F(RegistryFixture, PrometheusHistogramIsCumulative) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.record_histogram("cost", 0.5);  // bucket le="1"
  r.record_histogram("cost", 3.0);  // bucket le="4"
  r.record_histogram("cost", 3.5);  // bucket le="4"
  const std::string body = to_prometheus(r.snapshot());
  EXPECT_NE(body.find("netpart_cost_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_cost_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_cost_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_cost_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_cost_count 3\n"), std::string::npos);
}

TEST_F(RegistryFixture, PrometheusRollingBecomesSummary) {
  MetricsRegistry& r = MetricsRegistry::instance();
  for (int i = 0; i < 10; ++i) r.record_rolling("lat", 8.0);
  const std::string body = to_prometheus(r.snapshot());
  EXPECT_NE(body.find("# TYPE netpart_lat summary\n"), std::string::npos);
  EXPECT_NE(body.find("netpart_lat{quantile=\"0.5\"} 8\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_lat{quantile=\"0.99\"} 8\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_lat_count 10\n"), std::string::npos);
}

TEST_F(RegistryFixture, PrometheusNameCollisionFirstWins) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.add_counter("a.b", 1);
  r.add_counter("a_b", 2);  // sanitizes to the same family name
  const std::string body = to_prometheus(r.snapshot());
  std::size_t type_lines = 0;
  for (std::size_t at = body.find("# TYPE netpart_a_b_total");
       at != std::string::npos;
       at = body.find("# TYPE netpart_a_b_total", at + 1))
    ++type_lines;
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(body.find("netpart_a_b_total 1\n"), std::string::npos);
  EXPECT_EQ(body.find("netpart_a_b_total 2\n"), std::string::npos);
}

TEST_F(RegistryFixture, PrometheusSpansBecomePathLabelledGauges) {
  { ScopedSpan outer("solve"); ScopedSpan inner("lanczos"); }
  const std::string body = to_prometheus(MetricsRegistry::instance().snapshot());
  EXPECT_NE(body.find("netpart_phase_runs{path=\"solve\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpart_phase_runs{path=\"solve/lanczos\"} 1\n"),
            std::string::npos);
}

TEST(PromExport, EmptySnapshotIsEmptyBody) {
  EXPECT_TRUE(to_prometheus(MetricsSnapshot{}).empty());
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST_F(RegistryFixture, ChromeTraceEventsNest) {
  MetricsRegistry& r = MetricsRegistry::instance();
  r.add_counter("work.items", 5);
  {
    ScopedSpan outer("outer");
    { ScopedSpan a("a"); }
    { ScopedSpan b("b"); }
  }
  const std::string trace = to_chrome_trace(r.snapshot());
  const JsonValue root = JsonParser(trace).parse();
  const std::vector<JsonValue>& events = root.at("traceEvents").array;

  struct Interval { double ts, end; std::string name; };
  std::vector<Interval> spans;
  bool saw_counter = false;
  bool saw_metadata = false;
  for (const JsonValue& ev : events) {
    const std::string& ph = ev.at("ph").string;
    if (ph == "X")
      spans.push_back({ev.at("ts").number,
                       ev.at("ts").number + ev.at("dur").number,
                       ev.at("name").string});
    if (ph == "C") saw_counter = true;
    if (ph == "M") saw_metadata = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_metadata);
  ASSERT_EQ(spans.size(), 3u);
  const auto find = [&spans](const std::string& name) {
    return *std::find_if(spans.begin(), spans.end(),
                         [&name](const Interval& s) { return s.name == name; });
  };
  const Interval outer = find("outer");
  const Interval a = find("a");
  const Interval b = find("b");
  // Children are contained in the parent and packed without overlap.
  EXPECT_GE(a.ts, outer.ts);
  EXPECT_LE(a.end, outer.end);
  EXPECT_GE(b.ts, outer.ts);
  EXPECT_LE(b.end, outer.end);
  EXPECT_TRUE(a.end <= b.ts || b.end <= a.ts);
}

TEST(TraceExport, EmptySnapshotStillValidJson) {
  const JsonValue root = JsonParser(to_chrome_trace(MetricsSnapshot{})).parse();
  // Only the two metadata records.
  EXPECT_EQ(root.at("traceEvents").array.size(), 2u);
}

// ---------------------------------------------------------------------------
// Owner-thread span guard
// ---------------------------------------------------------------------------

TEST_F(RegistryFixture, CrossThreadSpansAreCountedAsDropped) {
  MetricsRegistry& r = MetricsRegistry::instance();
  // set_enabled(true) in SetUp made this thread the span owner; a worker
  // thread's spans must be refused — but visibly, via obs.dropped_spans.
  std::thread worker([] {
    MetricsRegistry::instance().begin_span("worker-span");
    MetricsRegistry::instance().end_span();
    MetricsRegistry::instance().begin_span("worker-span-2");
    MetricsRegistry::instance().end_span();
  });
  worker.join();
  const MetricsSnapshot snap = r.snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_EQ(snap.counter("obs.dropped_spans"), 2);
  // The counter surfaces through both exporters like any other counter.
  const JsonValue root = JsonParser(snap.to_json()).parse();
  EXPECT_EQ(root.at("counters").at("obs.dropped_spans").number, 2.0);
  const std::string body = to_prometheus(snap);
  EXPECT_NE(body.find("netpart_obs_dropped_spans_total 2\n"),
            std::string::npos);
}

TEST_F(RegistryFixture, OwnerThreadSpansDropNothing) {
  MetricsRegistry& r = MetricsRegistry::instance();
  { ScopedSpan s("owned"); }
  EXPECT_EQ(r.snapshot().counter("obs.dropped_spans"), 0);
}

// ---------------------------------------------------------------------------
// Sampling profiler
// ---------------------------------------------------------------------------

/// Stops the profiler and clears its sample table after each test (the
/// table is process-wide and survives stop(), so a dirty teardown would
/// leak a `profile` section into later snapshot tests).
struct ProfilerFixture : RegistryFixture {
  void TearDown() override {
    Profiler::instance().stop();
    Profiler::instance().start(0);  // start() clears the table...
    Profiler::instance().stop();    // ...and stop() disarms the hooks
    RegistryFixture::TearDown();
  }
};

TEST_F(ProfilerFixture, ManualSamplesFoldSpanPaths) {
  Profiler& p = Profiler::instance();
  ASSERT_TRUE(p.start(0));  // hooks armed, no timer: fully deterministic
  {
    ScopedSpan solve("solve");
    {
      ScopedSpan lanczos("lanczos");
      p.sample_now();
      p.sample_now();
    }
    p.sample_now();
  }
  p.sample_now();  // no open span anywhere -> unattributed
  p.stop();

  const ProfileSnapshot snap = p.snapshot();
  EXPECT_EQ(snap.total_samples, 4);
  EXPECT_EQ(snap.unattributed_samples, 1);
  EXPECT_EQ(snap.torn_samples, 0);
  EXPECT_EQ(snap.dropped_samples, 0);
  EXPECT_DOUBLE_EQ(snap.attribution(), 0.75);
  ASSERT_EQ(snap.paths.size(), 2u);
  EXPECT_EQ(snap.paths[0].first, "solve");
  EXPECT_EQ(snap.paths[0].second, 1);
  EXPECT_EQ(snap.paths[1].first, "solve;lanczos");
  EXPECT_EQ(snap.paths[1].second, 2);
}

TEST_F(ProfilerFixture, FoldedExportIsSortedAndDeterministic) {
  Profiler& p = Profiler::instance();
  ASSERT_TRUE(p.start(0));
  {
    ScopedSpan z("zeta");
    p.sample_now();
  }
  {
    ScopedSpan a("alpha");
    p.sample_now();
  }
  p.sample_now();  // unattributed
  p.stop();

  const ProfileSnapshot snap = p.snapshot();
  // Globally sorted, unattributed bucket included in the sort; this is the
  // round-trip contract scripts/validate_folded.py enforces.
  EXPECT_EQ(snap.to_folded(), "(unattributed) 1\nalpha 1\nzeta 1\n");
  EXPECT_EQ(snap.to_folded(), snap.to_folded());
  EXPECT_EQ(snap.to_json(), snap.to_json());
  const ProfileSnapshot again = p.snapshot();
  EXPECT_EQ(snap.to_folded(), again.to_folded());
}

TEST_F(ProfilerFixture, FrameNamesAreSanitizedForTheFoldedFormat) {
  Profiler& p = Profiler::instance();
  ASSERT_TRUE(p.start(0));
  {
    // ';' and ' ' are the folded format's separators; control bytes would
    // break line-oriented consumers.  All must collapse to '_' at push time.
    ScopedSpan hostile("a;b c\nd");
    p.sample_now();
  }
  p.stop();
  const ProfileSnapshot snap = p.snapshot();
  ASSERT_EQ(snap.paths.size(), 1u);
  EXPECT_EQ(snap.paths[0].first, "a_b_c_d");
}

TEST_F(ProfilerFixture, WorkerThreadSpansAreAttributed) {
  Profiler& p = Profiler::instance();
  ASSERT_TRUE(p.start(0));
  // The metrics registry drops worker-thread spans (owner guard above); the
  // profiler must not — pool workers carry real samples.
  std::thread worker([&p] {
    ScopedSpan span("worker-phase");
    p.sample_now();
  });
  worker.join();
  p.stop();
  const ProfileSnapshot snap = p.snapshot();
  ASSERT_EQ(snap.paths.size(), 1u);
  EXPECT_EQ(snap.paths[0].first, "worker-phase");
  EXPECT_EQ(snap.unattributed_samples, 0);
}

TEST_F(ProfilerFixture, StartWhileRunningFailsAndRestartClears) {
  Profiler& p = Profiler::instance();
  ASSERT_TRUE(p.start(0));
  EXPECT_FALSE(p.start(0));
  {
    ScopedSpan s("first-run");
    p.sample_now();
  }
  p.stop();
  EXPECT_EQ(p.snapshot().total_samples, 1);
  // Samples survive stop() (dump-after-stop), but the next start() clears.
  ASSERT_TRUE(p.start(0));
  p.stop();
  EXPECT_EQ(p.snapshot().total_samples, 0);
  EXPECT_TRUE(p.snapshot().empty());
}

TEST_F(ProfilerFixture, ProfileSectionRidesInMetricsSnapshots) {
  Profiler& p = Profiler::instance();
  ASSERT_TRUE(p.start(0));
  {
    ScopedSpan s("phase");
    p.sample_now();
  }
  p.stop();
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_FALSE(snap.profile.empty());
  const JsonValue root = JsonParser(snap.to_json()).parse();
  const JsonValue& profile = root.at("profile");
  EXPECT_EQ(profile.at("total_samples").number, 1.0);
  EXPECT_EQ(profile.at("unattributed_samples").number, 0.0);
  EXPECT_EQ(profile.at("samples").at("phase").number, 1.0);
}

TEST_F(ProfilerFixture, NoProfileSectionWithoutSamples) {
  // Byte-stability of existing exports: a snapshot with no profiler samples
  // must serialize exactly as before the profiler existed.
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_TRUE(snap.profile.empty());
  EXPECT_EQ(snap.to_json().find("\"profile\""), std::string::npos);
}

TEST_F(ProfilerFixture, TimerDrivenSamplingAttributesCpuWork) {
  Profiler& p = Profiler::instance();
  ASSERT_TRUE(p.start(1000));  // real ITIMER_PROF, 1 ms of CPU per tick
  volatile double sink = 0.0;
  {
    ScopedSpan busy("busy-loop");
    // Burn CPU until a few ticks land (bounded so a broken timer cannot
    // hang the suite; the profiler asserts below will then fail loudly).
    for (int outer = 0; outer < 5000 && p.snapshot().total_samples < 3;
         ++outer)
      for (int i = 0; i < 200'000; ++i)
        sink = sink + static_cast<double>(i) * 1e-9;
  }
  p.stop();
  const ProfileSnapshot snap = p.snapshot();
  // CPU was burned inside the span, so ticks must have landed — and on the
  // busy-loop path, not the unattributed bucket.
  EXPECT_GT(snap.total_samples, 0);
  bool saw_busy = false;
  for (const auto& [path, count] : snap.paths)
    if (path == "busy-loop" && count > 0) saw_busy = true;
  EXPECT_TRUE(saw_busy);
}

TEST_F(ProfilerFixture, StubProfilerIsTotalInBothConfigs) {
  // The call sequence CLI/server code relies on — manual start, a frame,
  // a synchronous sample, stop — must be total, and export stays
  // deterministic.
  Profiler& p = Profiler::instance();
  EXPECT_TRUE(p.start(0));
  Profiler::push_frame("x");
  Profiler::pop_frame();
  p.sample_now();
  p.stop();
  EXPECT_FALSE(p.running());
  const ProfileSnapshot snap = p.snapshot();
  EXPECT_EQ(snap.to_folded(), snap.to_folded());
}

// ---------------------------------------------------------------------------
// Convergence event ring
// ---------------------------------------------------------------------------

TEST(EventRing, EmitDrainRoundTripPreservesOrder) {
  EventRing& ring = EventRing::instance();
  ring.arm();
  NETPART_EVENT("test.alpha", {"j", 1.0}, {"residual", 0.25});
  NETPART_EVENT("test.beta", {"gain", -3.0});
  ring.disarm();
  EXPECT_EQ(ring.recorded(), 2);
  EXPECT_EQ(ring.dropped(), 0);

  const std::string ndjson = ring.drain_ndjson();
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = ndjson.find('\n'); nl != std::string::npos;
       nl = ndjson.find('\n', start)) {
    lines.push_back(ndjson.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = JsonParser(lines[0]).parse();
  EXPECT_EQ(first.at("seq").number, 0.0);
  EXPECT_EQ(first.at("kind").string, "test.alpha");
  EXPECT_EQ(first.at("j").number, 1.0);
  EXPECT_DOUBLE_EQ(first.at("residual").number, 0.25);
  EXPECT_GE(first.at("t_ms").number, 0.0);
  const JsonValue second = JsonParser(lines[1]).parse();
  EXPECT_EQ(second.at("seq").number, 1.0);
  EXPECT_EQ(second.at("kind").string, "test.beta");
  EXPECT_EQ(second.at("gain").number, -3.0);

  const JsonValue arr = JsonParser(ring.drain_json_array()).parse();
  ASSERT_EQ(arr.array.size(), 2u);
  EXPECT_EQ(arr.array[0].at("kind").string, "test.alpha");
  EXPECT_EQ(arr.array[1].at("kind").string, "test.beta");
}

TEST(EventRing, DisarmedEmitsAreIgnored) {
  EventRing& ring = EventRing::instance();
  ring.arm();
  ring.disarm();
  NETPART_EVENT("test.ignored", {"v", 1.0});
  EXPECT_EQ(ring.recorded(), 0);
  EXPECT_EQ(ring.drain_json_array(), "[]");
}

TEST(EventRing, RearmClearsThePreviousRun) {
  EventRing& ring = EventRing::instance();
  ring.arm();
  NETPART_EVENT("test.old", {"v", 1.0});
  ring.disarm();
  ring.arm();
  ring.disarm();
  EXPECT_EQ(ring.recorded(), 0);
  EXPECT_EQ(ring.drain_json_array(), "[]");
}

TEST(EventRing, ConcurrentEmittersLoseNoEvents) {
  EventRing& ring = EventRing::instance();
  ring.arm();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        NETPART_EVENT("test.concurrent", {"thread", static_cast<double>(t)},
                      {"i", static_cast<double>(i)});
    });
  for (auto& w : workers) w.join();
  ring.disarm();
  EXPECT_EQ(ring.recorded(), kThreads * kPerThread);
  EXPECT_EQ(ring.dropped(), 0);
  const JsonValue arr = JsonParser(ring.drain_json_array()).parse();
  EXPECT_EQ(arr.array.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(EventRing, FullRingDropsNewEventsNotOldOnes) {
  EventRing& ring = EventRing::instance();
  ring.arm();
  const auto total = static_cast<std::int64_t>(kEventRingCapacity) + 100;
  for (std::int64_t i = 0; i < total; ++i)
    NETPART_EVENT("test.flood", {"i", static_cast<double>(i)});
  ring.disarm();
  EXPECT_EQ(ring.recorded(), total);
  EXPECT_EQ(ring.dropped(), 100);
  // Drop-new: the head of the series survives; the flood's tail is what
  // went missing.  (The early Lanczos iterations are the interesting part.)
  const std::string ndjson = ring.drain_ndjson();
  const JsonValue first =
      JsonParser(ndjson.substr(0, ndjson.find('\n'))).parse();
  EXPECT_EQ(first.at("i").number, 0.0);
  ring.arm();  // leave the ring empty for later tests
  ring.disarm();
}

// ---------------------------------------------------------------------------
// Trace context (always compiled: serving telemetry, like the rolling
// histograms)
// ---------------------------------------------------------------------------

TEST(TraceContext, FormatAndParseRoundTrip) {
  EXPECT_EQ(format_trace_id(0x0011223344556677ULL, 0x8899aabbccddeeffULL),
            "00112233445566778899aabbccddeeff");
  EXPECT_EQ(format_span_id(0x0123456789abcdefULL), "0123456789abcdef");

  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  ASSERT_TRUE(parse_trace_id("00112233445566778899aabbccddeeff", hi, lo));
  EXPECT_EQ(hi, 0x0011223344556677ULL);
  EXPECT_EQ(lo, 0x8899aabbccddeeffULL);
  // Case-insensitive in, canonical lowercase out.
  ASSERT_TRUE(parse_trace_id("00112233445566778899AABBCCDDEEFF", hi, lo));
  EXPECT_EQ(format_trace_id(hi, lo), "00112233445566778899aabbccddeeff");

  std::uint64_t span = 0;
  ASSERT_TRUE(parse_span_id("FEEDFACEfeedface", span));
  EXPECT_EQ(span, 0xfeedfacefeedfaceULL);
}

TEST(TraceContext, ParseRejectsMalformedIds) {
  std::uint64_t hi = 1;
  std::uint64_t lo = 2;
  EXPECT_FALSE(parse_trace_id("", hi, lo));
  EXPECT_FALSE(parse_trace_id("0011", hi, lo));                      // short
  EXPECT_FALSE(parse_trace_id(std::string(33, 'a'), hi, lo));        // long
  EXPECT_FALSE(parse_trace_id(std::string(31, 'a') + "g", hi, lo));  // non-hex
  EXPECT_EQ(hi, 1u);  // outputs untouched on failure
  EXPECT_EQ(lo, 2u);
  std::uint64_t span = 3;
  EXPECT_FALSE(parse_span_id("0123456789abcde", span));
  EXPECT_FALSE(parse_span_id("0123456789abcdeZ", span));
  EXPECT_EQ(span, 3u);
}

TEST(TraceContext, GeneratedContextsAreValidAndDistinct) {
  const TraceContext a = generate_trace_context();
  const TraceContext b = generate_trace_context();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.span_id, 0u);
  EXPECT_EQ(a.parent_span, 0u);
  EXPECT_NE(format_trace_id(a.trace_hi, a.trace_lo),
            format_trace_id(b.trace_hi, b.trace_lo));
  EXPECT_NE(generate_span_id(), generate_span_id());
}

TEST(StageClock, DurationsAreDeltasBetweenConsecutiveMarks) {
  StageClock clock;
  clock.start(1'000'000);  // ns
  clock.mark(Stage::kParse, 1'005'000);       // +5us
  clock.mark(Stage::kAdmission, 1'007'000);   // +2us
  clock.mark(Stage::kQueue, 1'107'000);       // +100us
  clock.mark(Stage::kExecute, 2'107'000);     // +1000us
  clock.mark(Stage::kSerialize, 2'110'000);   // +3us
  clock.mark(Stage::kWrite, 2'112'500);       // +2.5us -> floor 2
  EXPECT_EQ(clock.duration_us(Stage::kParse), 5);
  EXPECT_EQ(clock.duration_us(Stage::kAdmission), 2);
  EXPECT_EQ(clock.duration_us(Stage::kQueue), 100);
  EXPECT_EQ(clock.duration_us(Stage::kExecute), 1000);
  EXPECT_EQ(clock.duration_us(Stage::kSerialize), 3);
  EXPECT_EQ(clock.duration_us(Stage::kWrite), 2);
  EXPECT_EQ(clock.total_us(), 1112);  // 1'112'500 ns, floored
  EXPECT_EQ(clock.begin_offset_us(Stage::kParse), 0);
  EXPECT_EQ(clock.begin_offset_us(Stage::kQueue), 7);
  EXPECT_EQ(clock.begin_offset_us(Stage::kExecute), 107);
}

TEST(StageClock, SkippedStagesHaveZeroDurationAndBridgeTheGap) {
  StageClock clock;
  clock.start(0);
  clock.mark(Stage::kParse, 4'000);
  // Admission and queue never happen (e.g. shed before submit)...
  clock.mark(Stage::kWrite, 10'000);
  EXPECT_EQ(clock.duration_us(Stage::kAdmission), 0);
  EXPECT_EQ(clock.duration_us(Stage::kQueue), 0);
  EXPECT_EQ(clock.duration_us(Stage::kExecute), 0);
  // ...so the next marked stage measures from the latest earlier mark.
  EXPECT_EQ(clock.duration_us(Stage::kWrite), 6);
  EXPECT_EQ(clock.total_us(), 10);
}

TEST(StageClock, WireStageNamesAreStable) {
  EXPECT_STREQ(stage_name(Stage::kParse), "parse");
  EXPECT_STREQ(stage_name(Stage::kAdmission), "admission");
  EXPECT_STREQ(stage_name(Stage::kQueue), "queue");
  EXPECT_STREQ(stage_name(Stage::kExecute), "execute");
  EXPECT_STREQ(stage_name(Stage::kSerialize), "serialize");
  EXPECT_STREQ(stage_name(Stage::kWrite), "write");
}

TEST(PromExport, RollingExemplarAnnotatesTheP99Sample) {
  MetricsSnapshot snap;
  RollingEntry entry;
  entry.name = "class_latency_ms.cold";
  entry.window_ms = 60000;
  for (int i = 0; i < 10; ++i) histogram_record(entry.window, 4.0);
  entry.exemplar_trace_id = "00112233445566778899aabbccddeeff";
  entry.exemplar_value = 4.0;
  entry.exemplar_ts_ms = 1700000000500;
  snap.rolling.push_back(entry);
  const std::string body = to_prometheus(snap);
  // The annotation rides the p99 sample line, after the value, behind a
  // '#': classic text-format parsers read it as a comment.
  EXPECT_NE(
      body.find("netpart_class_latency_ms_cold{quantile=\"0.99\"} 4 "
                "# {trace_id=\"00112233445566778899aabbccddeeff\"} 4 "
                "1700000000.5\n"),
      std::string::npos)
      << body;
  // The p50 sample stays bare.
  EXPECT_NE(body.find("netpart_class_latency_ms_cold{quantile=\"0.5\"} 4\n"),
            std::string::npos);

  // Without an exemplar the p99 line is bare too.
  MetricsSnapshot plain;
  RollingEntry bare = entry;
  bare.exemplar_trace_id.clear();
  plain.rolling.push_back(bare);
  EXPECT_NE(to_prometheus(plain).find(
                "netpart_class_latency_ms_cold{quantile=\"0.99\"} 4\n"),
            std::string::npos);
}

TEST(TraceExport, RequestOverlayAddsTracedTimelineThread) {
  MetricsSnapshot snap;  // empty pipeline snapshot: overlay stands alone
  const std::vector<RequestStageEvent> stages = {
      {"parse", 0, 5}, {"admission", 5, 2}, {"queue", 7, 100},
      {"execute", 107, 1000}};
  const std::string trace = to_chrome_trace(
      snap, "netpart", "00112233445566778899aabbccddeeff", stages);
  const JsonValue root = JsonParser(trace).parse();
  const std::vector<JsonValue>& events = root.at("traceEvents").array;

  const JsonValue* request = nullptr;
  std::vector<const JsonValue*> stage_events;
  for (const JsonValue& ev : events) {
    if (ev.at("ph").string != "X") continue;
    EXPECT_EQ(ev.at("tid").number, 2.0);  // the request timeline thread
    EXPECT_EQ(ev.at("args").at("trace_id").string,
              "00112233445566778899aabbccddeeff");
    if (ev.at("name").string == "request")
      request = &ev;
    else
      stage_events.push_back(&ev);
  }
  ASSERT_NE(request, nullptr);
  ASSERT_EQ(stage_events.size(), 4u);
  // The root spans every stage; children sit inside it on a real timeline.
  EXPECT_EQ(request->at("ts").number, 0.0);
  EXPECT_EQ(request->at("dur").number, 1107.0);
  for (const JsonValue* ev : stage_events) {
    EXPECT_EQ(ev->at("name").string.rfind("stage.", 0), 0u);
    EXPECT_GE(ev->at("ts").number, request->at("ts").number);
    EXPECT_LE(ev->at("ts").number + ev->at("dur").number,
              request->at("ts").number + request->at("dur").number);
  }

  // No trace context, no overlay: the plain export shape is unchanged.
  EXPECT_EQ(to_chrome_trace(snap, "netpart", "", {}), to_chrome_trace(snap));
}

}  // namespace
}  // namespace netpart::obs
