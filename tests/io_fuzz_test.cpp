/// Robustness tests: malformed and adversarial inputs must produce a
/// ParseError (or another std exception), never a crash, hang, or silently
/// wrong hypergraph.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "circuits/rng.hpp"
#include "io/blif_io.hpp"
#include "io/netlist_io.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/prom_export.hpp"
#include "obs/trace_export.hpp"
#include "repart/edit_script.hpp"
#include "server/protocol.hpp"

namespace netpart::io {
namespace {

/// Each parser must reject (or cleanly accept) arbitrary byte soup.
class GarbageInputTest : public ::testing::TestWithParam<std::uint64_t> {};

std::string random_garbage(std::uint64_t seed, std::size_t length) {
  Xoshiro256 rng(seed);
  std::string out;
  // Printable-ish alphabet with structure-adjacent characters so the
  // parsers get past trivial rejections occasionally.
  const std::string alphabet =
      "0123456789 \t\n.%#-abcdefg .model.names net modules\\=";
  for (std::size_t i = 0; i < length; ++i)
    out += alphabet[static_cast<std::size_t>(
        rng.below(alphabet.size()))];
  return out;
}

TEST_P(GarbageInputTest, HgrParserNeverCrashes) {
  std::istringstream in(random_garbage(GetParam(), 400));
  try {
    const Hypergraph h = read_hgr(in);
    // Accepted input must at least be internally consistent.
    std::int64_t pins = 0;
    for (NetId n = 0; n < h.num_nets(); ++n) pins += h.net_size(n);
    EXPECT_EQ(pins, h.num_pins());
  } catch (const std::exception&) {
    // Rejection is the expected outcome.
  }
}

TEST_P(GarbageInputTest, NetdParserNeverCrashes) {
  std::istringstream in(random_garbage(GetParam() + 1000, 400));
  try {
    (void)read_netd(in);
  } catch (const std::exception&) {
  }
}

TEST_P(GarbageInputTest, BlifParserNeverCrashes) {
  std::istringstream in(random_garbage(GetParam() + 2000, 400));
  try {
    (void)read_blif(in);
  } catch (const std::exception&) {
  }
}

TEST_P(GarbageInputTest, PartitionParserNeverCrashes) {
  std::istringstream in(random_garbage(GetParam() + 3000, 120));
  try {
    (void)read_partition(in);
  } catch (const std::exception&) {
  }
}

/// A small netlist the edit-script fuzzers apply against.
Hypergraph fuzz_target() {
  HypergraphBuilder builder(6);
  builder.add_net({0, 1});
  builder.add_net({1, 2, 3});
  builder.add_net({3, 4});
  builder.add_net({4, 5});
  return builder.build();
}

std::string random_edit_garbage(std::uint64_t seed, std::size_t length) {
  Xoshiro256 rng(seed);
  std::string out;
  // Edit-op-adjacent alphabet so scripts occasionally parse and reach the
  // applier, where the semantic validation (names, ids) takes over.
  const std::string alphabet =
      "0123456789 \n#-addnetremovmpicu add-net remove-net move-pin commit n0 ";
  for (std::size_t i = 0; i < length; ++i)
    out += alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))];
  return out;
}

TEST_P(GarbageInputTest, EditScriptParserAndApplierNeverCrash) {
  std::istringstream in(random_edit_garbage(GetParam() + 4000, 300));
  try {
    const repart::EditScript script = repart::read_edit_script(in);
    // Parsed scripts must also apply cleanly or be rejected cleanly.
    repart::EditableNetlist editor(fuzz_target());
    repart::EditScriptApplier applier(editor);
    for (const repart::EditBatch& batch : script.batches) applier.apply(batch);
  } catch (const std::exception&) {
    // Rejection (ParseError at parse time, invalid_argument/out_of_range at
    // apply time) is the expected outcome.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageInputTest,
                         ::testing::Range<std::uint64_t>(0, 24));

TEST(IoEdgeCases, HgrHugeHeaderCountsRejected) {
  // A header promising far more nets than the stream carries must fail
  // with ParseError (EOF), not allocate unboundedly.
  std::istringstream in("2000000000 5\n1 2\n");
  EXPECT_THROW(read_hgr(in), ParseError);
}

TEST(IoEdgeCases, HgrNegativeHeaderRejected) {
  std::istringstream in("-3 5\n");
  EXPECT_THROW(read_hgr(in), ParseError);
}

TEST(IoEdgeCases, HgrHeaderCountsAboveInt32Rejected) {
  // An unchecked int32 cast wraps these to a 1-module netlist and to a
  // negative count.
  EXPECT_THROW(read_hgr(std::string_view("1 4294967297\n4294967297\n")),
               ParseError);
  EXPECT_THROW(read_hgr(std::string_view("1 2147483648\n1 2\n")),
               ParseError);
}

TEST(IoEdgeCases, HgrLoneSignRejected) {
  // Dropping the lone sign would leave net {0,1}, and an empty net.
  EXPECT_THROW(read_hgr(std::string_view("1 3\n1 2 -\n")), ParseError);
  EXPECT_THROW(read_hgr(std::string_view("1 3\n-\n")), ParseError);
}

TEST(IoEdgeCases, NetdHugeModuleCountParsesButStaysEmpty) {
  // Large module counts are legal (sparse designs); no nets is fine.
  std::istringstream in("modules 1000000\n");
  const Hypergraph h = read_netd(in);
  EXPECT_EQ(h.num_modules(), 1000000);
  EXPECT_EQ(h.num_nets(), 0);
}

TEST(IoEdgeCases, BlifDeepContinuationChain) {
  std::string text = ".model chain\n.inputs";
  for (int i = 0; i < 200; ++i) text += " \\\n s" + std::to_string(i);
  text += "\n.names s0 s1 out\n11 1\n.end\n";
  std::istringstream in(text);
  const BlifModel model = read_blif(in);
  EXPECT_EQ(model.num_inputs, 200);
}

/// Hand-written mutation corpus for the edits-file format: every entry must
/// be rejected with a clean exception — at parse time for syntactic damage,
/// at apply time for semantic damage — and never crash or corrupt state.
TEST(IoEdgeCases, EditScriptMutationCorpusRejectedCleanly) {
  const struct {
    const char* label;
    const char* text;
    bool parses;  // syntactically fine, must then fail in the applier
  } corpus[] = {
      {"truncated add-net (no name)", "add-net\n", false},
      {"truncated add-net (no pins)", "add-net x\n", false},
      {"truncated move-pin", "move-pin n3 1\n", false},
      {"truncated remove-net", "remove-net\n", false},
      {"remove-net extra args", "remove-net n0 n1\n", false},
      {"commit with arguments", "commit now\n", false},
      {"add-module with arguments", "add-module 3\n", false},
      {"unknown op", "frobnicate n0\n", false},
      {"non-numeric pin", "add-net x 0 one\n", false},
      {"negative pin", "add-net x 0 -1\n", false},
      {"huge id overflows int32", "add-net x 0 999999999999999999999\n", false},
      {"remove-module non-numeric", "remove-module n0\n", false},
      {"duplicate net name", "add-net dup 0 1\nadd-net dup 1 2\n", true},
      {"dangling net ref", "remove-net nope\n", true},
      {"move-pin unknown net", "move-pin ghost 0 1\n", true},
      {"move-pin module not a pin", "move-pin n0 5 2\n", true},
      {"move-pin module out of range", "move-pin n0 0 99\n", true},
      {"add-net pin out of range", "add-net x 0 42\n", true},
      {"remove-module out of range", "remove-module 17\n", true},
      {"net name reused after removal", "remove-net n1\nadd-net n1 0 1\n",
       true},
  };
  for (const auto& entry : corpus) {
    std::istringstream in(entry.text);
    if (!entry.parses) {
      EXPECT_THROW((void)repart::read_edit_script(in), ParseError)
          << entry.label;
      continue;
    }
    repart::EditScript script;
    ASSERT_NO_THROW(script = repart::read_edit_script(in)) << entry.label;
    repart::EditableNetlist editor(fuzz_target());
    repart::EditScriptApplier applier(editor);
    const std::int32_t nets_before = editor.num_nets();
    bool rejected = false;
    try {
      for (const repart::EditBatch& batch : script.batches)
        applier.apply(batch);
    } catch (const std::invalid_argument&) {
      rejected = true;
    } catch (const std::out_of_range&) {
      rejected = true;
    }
    if (std::string(entry.label) == "net name reused after removal") {
      // This one is legal by design: names are handles, removal frees them.
      EXPECT_FALSE(rejected) << entry.label;
      EXPECT_EQ(editor.num_nets(), nets_before) << entry.label;
    } else {
      EXPECT_TRUE(rejected) << entry.label;
    }
  }
}

TEST(IoEdgeCases, EditScriptPositiveRoundTrip) {
  std::istringstream in(
      "# ECO\n"
      "add-module\n"
      "add-net bridge 0 6\n"
      "commit\n"
      "move-pin n2 3 5\n"
      "remove-net n0\n");
  const repart::EditScript script = repart::read_edit_script(in);
  ASSERT_EQ(script.batches.size(), 2u);  // trailing batch is implicit
  repart::EditableNetlist editor(fuzz_target());
  repart::EditScriptApplier applier(editor);
  for (const repart::EditBatch& batch : script.batches) applier.apply(batch);
  EXPECT_EQ(editor.num_modules(), 7);
  EXPECT_EQ(editor.num_nets(), 4);  // 4 - 1 removed + 1 added
}

TEST(IoEdgeCases, EmptyNetLineInHgrIsEmptyNet) {
  // An .hgr net line may legally be empty only if the format allows
  // zero-pin nets; ours treats a blank line as skippable, so the net count
  // must then mismatch and raise.
  std::istringstream in("2 3\n1 2\n\n");
  EXPECT_THROW(read_hgr(in), ParseError);
}

}  // namespace
}  // namespace netpart::io

// ---------------------------------------------------------------------------
// netpartd protocol fuzzing: the request parser sits directly behind the
// socket, so arbitrary byte soup must always come back as a structured
// ParseResult — never an uncaught exception, crash, or over-read.
// ---------------------------------------------------------------------------

namespace netpart::server {
namespace {

std::string random_protocol_garbage(std::uint64_t seed, std::size_t length) {
  Xoshiro256 rng(seed);
  std::string out;
  // JSON-adjacent alphabet (plus real field names) so some inputs get deep
  // into the parser and validator before failing.
  const std::string alphabet =
      "{}[]\":,0123456789.-+eE \\untrflips"
      "\"op\" \"id\" \"session\" \"load\" \"partition\" \"circuit\" ";
  for (std::size_t i = 0; i < length; ++i)
    out += alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))];
  return out;
}

class ProtocolGarbageTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolGarbageTest, RequestParserNeverThrows) {
  const std::string line = random_protocol_garbage(GetParam(), 300);
  Request req;
  std::string error;
  const ParseResult result = parse_request(line, req, error);
  if (result != ParseResult::kOk) {
    EXPECT_FALSE(error.empty()) << line;
  } else {
    // Accepted requests carry a validated op and any required fields.
    EXPECT_FALSE(req.op_name.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolGarbageTest,
                         ::testing::Range<std::uint64_t>(0, 32));

TEST(ProtocolEdgeCases, EveryTruncationOfAValidRequestIsHandled) {
  const std::string full =
      R"({"id":7,"op":"load","session":"s","hgr":"2 3\n1 2\n2 3\n",)"
      R"("timeout_ms":250,"use_cache":false,"trace":true})";
  Request req;
  std::string error;
  ASSERT_EQ(parse_request(full, req, error), ParseResult::kOk) << error;
  EXPECT_EQ(req.id, 7);
  EXPECT_EQ(req.timeout_ms, 250);
  EXPECT_FALSE(req.use_cache);
  EXPECT_TRUE(req.trace);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const ParseResult r =
        parse_request(std::string_view(full).substr(0, len), req, error);
    EXPECT_NE(r, ParseResult::kOk) << "prefix length " << len;
  }
}

TEST(ProtocolEdgeCases, DeepNestingIsBoundedNotStackOverflowed) {
  std::string deep(1000, '[');
  Request req;
  std::string error;
  EXPECT_EQ(parse_request(deep, req, error), ParseResult::kMalformed);
  JsonValue v;
  EXPECT_FALSE(parse_json(deep, v, error));
  EXPECT_NE(error.find("nesting"), std::string::npos);
  // Matched-but-deep nesting fails the same way (the depth limit, not the
  // truncation, is what rejects it).
  std::string matched = std::string(100, '[') + std::string(100, ']');
  EXPECT_FALSE(parse_json(matched, v, error));
}

TEST(ProtocolEdgeCases, OversizedButValidFrameParses) {
  // Frame-size enforcement lives in the server's reader, not the parser;
  // the parser itself must stay linear and correct on megabyte inputs.
  std::string big = R"({"id":1,"op":"load","session":"s","hgr":")";
  big.append(1 << 20, 'x');
  big += "\"}";
  Request req;
  std::string error;
  EXPECT_EQ(parse_request(big, req, error), ParseResult::kOk) << error;
  EXPECT_EQ(req.hgr.size(), std::size_t{1} << 20);
}

TEST(ProtocolEdgeCases, ValidationTable) {
  const struct {
    const char* label;
    const char* line;
    ParseResult expected;
  } corpus[] = {
      {"empty", "", ParseResult::kMalformed},
      {"not json", "hello there", ParseResult::kMalformed},
      {"bare number", "42", ParseResult::kMalformed},
      {"array not object", "[1,2]", ParseResult::kMalformed},
      {"trailing content", R"({"op":"ping"} extra)", ParseResult::kMalformed},
      {"raw control char in string", "{\"op\":\"pi\x01ng\"}",
       ParseResult::kMalformed},
      {"lone high surrogate", R"({"op":"\ud800"})", ParseResult::kMalformed},
      {"lone low surrogate", R"({"op":"\udc00"})", ParseResult::kMalformed},
      {"bad escape", R"({"op":"\q"})", ParseResult::kMalformed},
      {"unterminated string", R"({"op":"ping)", ParseResult::kMalformed},
      {"missing op", R"({"id":1})", ParseResult::kInvalid},
      {"op wrong type", R"({"op":3})", ParseResult::kInvalid},
      {"unknown op", R"({"op":"frobnicate"})", ParseResult::kUnknownOp},
      {"negative id", R"({"id":-5,"op":"ping"})", ParseResult::kInvalid},
      {"fractional id", R"({"id":1.5,"op":"ping"})", ParseResult::kInvalid},
      {"id beyond 2^53", R"({"id":1e300,"op":"ping"})", ParseResult::kInvalid},
      {"load without session", R"({"op":"load","circuit":"bm1"})",
       ParseResult::kInvalid},
      {"load without source",
       R"({"op":"load","session":"s"})", ParseResult::kInvalid},
      {"load with two sources",
       R"({"op":"load","session":"s","circuit":"bm1","path":"x.hgr"})",
       ParseResult::kInvalid},
      {"edit without script", R"({"op":"edit","session":"s"})",
       ParseResult::kInvalid},
      {"partition without session", R"({"op":"partition"})",
       ParseResult::kInvalid},
      {"timeout wrong type",
       R"({"op":"ping","timeout_ms":"soon"})", ParseResult::kInvalid},
      {"use_cache wrong type",
       R"({"op":"partition","session":"s","use_cache":1})",
       ParseResult::kInvalid},
      {"valid ping", R"({"op":"ping"})", ParseResult::kOk},
      {"valid unicode session",
       R"({"op":"unload","session":"é😀"})", ParseResult::kOk},
  };
  for (const auto& entry : corpus) {
    Request req;
    std::string error;
    EXPECT_EQ(parse_request(entry.line, req, error), entry.expected)
        << entry.label << ": " << error;
  }
}

TEST(ProtocolEdgeCases, ErrorResponsesEchoRecoverableIds) {
  // Even an invalid request echoes its id when the frame was an object
  // carrying a well-formed one, so clients can correlate failures.
  Request req;
  std::string error;
  EXPECT_EQ(parse_request(R"({"id":9,"op":"edit","session":"s"})", req, error),
            ParseResult::kInvalid);
  EXPECT_EQ(req.id, 9);
  const std::string response = error_response(req.id, "bad_request", error);
  EXPECT_NE(response.find("\"id\":9"), std::string::npos);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
}

}  // namespace
}  // namespace netpart::server

// ---------------------------------------------------------------------------
// Exporter fuzzing: to_prometheus and to_chrome_trace are pure functions of
// a snapshot, so however hostile the metric names and values, they must not
// crash, and their Prometheus output must stay within the exposition
// charset.  (Byte-level format checks live in obs_test; this is the
// never-crash / always-well-formed sweep.)
// ---------------------------------------------------------------------------

namespace netpart::obs {
namespace {

std::string fuzz_name(Xoshiro256& rng) {
  static constexpr std::string_view alphabet =
      "abz019._-:{}\"\\\n\t #/\xc3\xa9";
  std::string out;
  const std::uint64_t len = rng.below(24);
  for (std::uint64_t i = 0; i < len; ++i)
    out += alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))];
  return out;
}

double fuzz_value(Xoshiro256& rng) {
  switch (rng.below(6)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -1e308;
    case 4: return 0.0;
    default:
      return static_cast<double>(rng.below(1u << 30)) * 1e-3;
  }
}

MetricsSnapshot fuzz_snapshot(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  MetricsSnapshot snap;
  snap.run_label = fuzz_name(rng);
  for (std::uint64_t i = 0, n = rng.below(16); i < n; ++i)
    snap.counters.push_back(
        {fuzz_name(rng), static_cast<std::int64_t>(rng.below(1u << 20))});
  for (std::uint64_t i = 0, n = rng.below(16); i < n; ++i)
    snap.gauges.push_back({fuzz_name(rng), fuzz_value(rng)});
  for (std::uint64_t i = 0, n = rng.below(8); i < n; ++i) {
    HistogramEntry h;
    h.name = fuzz_name(rng);
    for (std::uint64_t s = 0, m = rng.below(64); s < m; ++s)
      histogram_record(h, fuzz_value(rng));
    snap.histograms.push_back(std::move(h));
  }
  for (std::uint64_t i = 0, n = rng.below(8); i < n; ++i) {
    RollingEntry entry;
    entry.name = fuzz_name(rng);
    entry.window_ms = static_cast<std::int64_t>(rng.below(100000));
    for (std::uint64_t s = 0, m = rng.below(64); s < m; ++s)
      histogram_record(entry.window, fuzz_value(rng));
    snap.rolling.push_back(std::move(entry));
  }
  // A deep, branching span tree with hostile names and non-finite timings.
  SpanNode* cursor = nullptr;
  for (int depth = 0; depth < 40; ++depth) {
    SpanNode node;
    node.name = fuzz_name(rng);
    node.wall_ms = fuzz_value(rng);
    node.count = static_cast<std::int64_t>(rng.below(5));
    if (cursor == nullptr) {
      snap.spans.push_back(std::move(node));
      cursor = &snap.spans.back();
    } else {
      cursor->children.push_back(std::move(node));
      if (rng.below(4) != 0) cursor = &cursor->children.back();
    }
  }
  return snap;
}

class ExporterFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExporterFuzzTest, PrometheusOutputStaysInCharset) {
  const MetricsSnapshot snap = fuzz_snapshot(GetParam());
  const std::string body = to_prometheus(snap);
  EXPECT_EQ(body, to_prometheus(snap));  // deterministic on hostile input too
  // Metric-name tokens (first token of every non-comment line) must only
  // contain exposition-legal characters, whatever we fed in.
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    ASSERT_FALSE(name.empty()) << line;
    for (const char c : name) {
      const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9') || c == '_' || c == ':';
      ASSERT_TRUE(legal) << "illegal char in metric name: " << line;
    }
  }
}

TEST_P(ExporterFuzzTest, ChromeTraceNeverEmitsRawControlBytes) {
  const MetricsSnapshot snap = fuzz_snapshot(GetParam());
  const std::string trace = to_chrome_trace(snap);
  EXPECT_EQ(trace, to_chrome_trace(snap));
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(trace.back(), '}');
  for (const char c : trace)
    ASSERT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\0')
        << "unescaped control byte in trace output";
}

/// Hostile span names through the profiler must still yield a folded export
/// that line-oriented consumers (flamegraph.pl, validate_folded.py) can
/// split: exactly one space per line, positive integer count, sanitized
/// frames with no separators or control bytes.
TEST_P(ExporterFuzzTest, FoldedProfileStaysLineParseable) {
  Profiler& profiler = Profiler::instance();
  ASSERT_TRUE(profiler.start(0));
  Xoshiro256 rng(GetParam() + 9000);
  for (int round = 0; round < 8; ++round) {
    // Random depth, sometimes past the profiler's frame-depth cap.
    const auto depth = static_cast<int>(1 + rng.below(24));
    for (int d = 0; d < depth; ++d) Profiler::push_frame(fuzz_name(rng));
    profiler.sample_now();
    for (int d = 0; d < depth; ++d) Profiler::pop_frame();
  }
  profiler.sample_now();  // one unattributed
  profiler.stop();

  const ProfileSnapshot snap = profiler.snapshot();
  const std::string folded = snap.to_folded();
  EXPECT_EQ(folded, snap.to_folded());  // deterministic on hostile input too
  std::istringstream in(folded);
  std::string line;
  std::vector<std::string> paths;
  std::int64_t total = 0;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' ', space + 1), std::string::npos) << line;
    const std::string path = line.substr(0, space);
    ASSERT_FALSE(path.empty()) << line;
    const std::int64_t count = std::stoll(line.substr(space + 1));
    EXPECT_GT(count, 0) << line;
    total += count;
    if (path != "(unattributed)") {
      for (const char c : path) {
        ASSERT_TRUE(static_cast<unsigned char>(c) >= 0x20 && c != ' ' &&
                    c != '(' && c != ')')
            << "unsanitized byte in folded path: " << line;
      }
      for (std::size_t at = 0; (at = path.find(';', at)) != std::string::npos;
           ++at)
        ASSERT_NE(path[at + 1], ';') << "empty frame in " << line;
    }
    paths.push_back(path);
  }
  EXPECT_EQ(total, snap.total_samples);
  std::vector<std::string> sorted = paths;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(paths, sorted);
  // The JSON form must parse whatever the span names were.
  server::JsonValue parsed;
  std::string error;
  EXPECT_TRUE(server::parse_json(snap.to_json(), parsed, error)) << error;

  profiler.start(0);  // leave the process-wide table empty
  profiler.stop();
}

/// Hostile kinds, field names, and non-finite values through the event
/// ring: both drain formats must stay parseable JSON.
TEST_P(ExporterFuzzTest, EventStreamStaysJsonParseable) {
  EventRing& ring = EventRing::instance();
  Xoshiro256 rng(GetParam() + 11000);
  // The ring stores pointers, not copies; a deque keeps every hostile
  // string at a stable address until after the drains.
  std::deque<std::string> corpus;
  ring.arm();
  constexpr int kEmits = 64;
  for (int i = 0; i < kEmits; ++i) {
    const char* kind = corpus.emplace_back(fuzz_name(rng)).c_str();
    const char* field = corpus.emplace_back(fuzz_name(rng)).c_str();
    ring.emit(kind, {{field, fuzz_value(rng)},
                     {"i", static_cast<double>(i)}});
  }
  ring.disarm();

  server::JsonValue parsed;
  std::string error;
  const std::string array = ring.drain_json_array();
  ASSERT_TRUE(server::parse_json(array, parsed, error)) << error;
  const std::string ndjson = ring.drain_ndjson();
  std::istringstream in(ndjson);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    server::JsonValue record;
    ASSERT_TRUE(server::parse_json(line, record, error))
        << error << ": " << line;
    ++lines;
  }
  EXPECT_EQ(parsed.array.size(), static_cast<std::size_t>(kEmits));
  EXPECT_EQ(lines, static_cast<std::size_t>(kEmits));
  ring.arm();  // leave the ring empty
  ring.disarm();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExporterFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 48));

}  // namespace
}  // namespace netpart::obs
