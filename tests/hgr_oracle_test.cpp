/// Differential test of the one-pass .hgr reader against its predecessor.
///
/// `legacy::read_hgr` below is the previous reader, kept verbatim: one
/// std::getline plus one std::istringstream per line, integers read by
/// `operator>>`.  Every seeded input must give the same outcome from both:
/// a bit-identical Hypergraph (module count, pin lists, weights, module
/// incidence), or an exception of the same dynamic type with the same
/// what().  Two defects of the legacy reader are the only allowed
/// differences, and each must now raise ParseError:
///
///  * a header count above 2^31 - 1, which the legacy reader cast to
///    int32 (wrapping to a wrong module count, or escaping as
///    std::invalid_argument);
///  * a token that fails to parse at the very end of a net line (a lone
///    '+'/'-' or an int64 overflow): `operator>>` reached EOF, so the
///    legacy loop ended as if the line were done and dropped the token.
///
/// The legacy reader is never run on a count-above-limit input: it would
/// size its builder by the wrapped count.

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/rng.hpp"
#include "io/netlist_io.hpp"

namespace netpart::io {

namespace legacy {

// --- The previous reader, verbatim. ---------------------------------------

namespace {

/// Fetch the next non-comment, non-blank line.  Returns false on EOF.
bool next_content_line(std::istream& in, std::string& line,
                       std::int64_t& line_no, char comment_char) {
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size() || line[i] == comment_char) continue;
    return true;
  }
  return false;
}

}  // namespace

Hypergraph read_hgr(std::istream& in) {
  std::string line;
  std::int64_t line_no = 0;
  if (!next_content_line(in, line, line_no, '%'))
    throw ParseError("empty .hgr input", line_no);

  std::istringstream header(line);
  std::int64_t num_nets = 0;
  std::int64_t num_modules = 0;
  if (!(header >> num_nets >> num_modules))
    throw ParseError("expected '<nets> <modules>' header", line_no);
  std::int64_t fmt = 0;
  bool net_weights = false;
  if (header >> fmt) {
    // hMETIS format flags: 1 = hyperedge weights, 10 = vertex weights,
    // 11 = both.  Vertex weights have no meaning in this library (the
    // spectral methods are area-oblivious, see Section 4 of the paper).
    if (fmt == 1)
      net_weights = true;
    else if (fmt != 0)
      throw ParseError("unsupported .hgr format flag " + std::to_string(fmt) +
                           " (only 0 and 1 are accepted)",
                       line_no);
  }
  if (num_nets < 0 || num_modules < 0)
    throw ParseError("negative counts in header", line_no);

  HypergraphBuilder builder(static_cast<std::int32_t>(num_modules));
  std::vector<ModuleId> pins;
  for (std::int64_t n = 0; n < num_nets; ++n) {
    if (!next_content_line(in, line, line_no, '%'))
      throw ParseError("unexpected EOF: expected " + std::to_string(num_nets) +
                           " nets, got " + std::to_string(n),
                       line_no);
    std::istringstream ls(line);
    std::int64_t weight = 1;
    if (net_weights) {
      if (!(ls >> weight) || weight < 1 ||
          weight > std::numeric_limits<std::int32_t>::max())
        throw ParseError("bad net weight", line_no);
    }
    pins.clear();
    std::int64_t pin = 0;
    while (ls >> pin) {
      if (pin < 1 || pin > num_modules)
        throw ParseError("pin " + std::to_string(pin) + " out of range",
                         line_no);
      pins.push_back(static_cast<ModuleId>(pin - 1));
    }
    if (!ls.eof())
      throw ParseError("non-numeric token in net line", line_no);
    builder.add_net(pins, static_cast<std::int32_t>(weight));
  }
  return builder.build();
}

// --- End of the previous reader. ------------------------------------------

}  // namespace legacy

namespace {

/// Everything a reader call can produce, in comparable form.
struct Outcome {
  bool ok = false;
  std::int32_t modules = 0;
  std::vector<std::int64_t> offsets;  // CSR over nets, as pins() exposes
  std::vector<ModuleId> pins;
  std::vector<std::int32_t> weights;
  std::vector<NetId> incidence;  // nets_of(m) concatenated over modules
  std::string type;              // dynamic exception type when !ok
  std::string what;
  std::int64_t line = -1;        // ParseError::line(), else -1

  bool operator==(const Outcome&) const = default;
};

Outcome snapshot(const Hypergraph& h) {
  Outcome o;
  o.ok = true;
  o.modules = h.num_modules();
  o.offsets.push_back(0);
  for (NetId n = 0; n < h.num_nets(); ++n) {
    for (const ModuleId m : h.pins(n)) o.pins.push_back(m);
    o.offsets.push_back(static_cast<std::int64_t>(o.pins.size()));
    o.weights.push_back(h.net_weight(n));
  }
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    for (const NetId n : h.nets_of(m)) o.incidence.push_back(n);
  return o;
}

std::string describe(const Outcome& o) {
  if (!o.ok) return std::string(o.type) + ": " + o.what;
  return "ok: " + std::to_string(o.modules) + " modules, " +
         std::to_string(o.weights.size()) + " nets, " +
         std::to_string(o.pins.size()) + " pins";
}

void PrintTo(const Outcome& o, std::ostream* os) { *os << describe(o); }

Outcome failure(const std::exception& e, std::int64_t line) {
  Outcome o;
  o.type = typeid(e).name();
  o.what = e.what();
  o.line = line;
  return o;
}

template <typename Read>
Outcome outcome_of(Read&& read) {
  try {
    return snapshot(read());
  } catch (const ParseError& e) {
    return failure(e, e.line());
  } catch (const std::exception& e) {
    return failure(e, -1);
  }
}

/// 1-based line `number` of `text`, lines split on '\n' as getline does.
std::string_view line_of(std::string_view text, std::int64_t number) {
  for (std::int64_t i = 1; i < number; ++i) {
    const std::size_t end = text.find('\n');
    if (end == std::string_view::npos) return {};
    text.remove_prefix(end + 1);
  }
  return text.substr(0, text.find('\n'));
}

bool is_c_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The header defect: `operator>>` reads a count above int32 on this line.
bool header_count_above_int32(std::string_view line) {
  std::istringstream in{std::string(line)};
  std::int64_t nets = 0;
  std::int64_t modules = 0;
  if (!(in >> nets >> modules)) return false;
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  return nets > kMax || modules > kMax;
}

/// The net-line defect: after its trailing whitespace, the line ends in a
/// token `operator>>` fails on: a lone sign, or a (signed) digit run that
/// overflows int64.
bool ends_in_failed_token(std::string_view line) {
  while (!line.empty() && is_c_space(line.back())) line.remove_suffix(1);
  if (line.empty()) return false;
  if (line.back() == '+' || line.back() == '-') return true;
  std::size_t start = line.size();
  while (start > 0 && is_digit(line[start - 1])) --start;
  if (start == line.size()) return false;
  if (start > 0 && line[start - 1] == '-') --start;  // from_chars takes '-'
  std::int64_t value = 0;
  const std::string_view token = line.substr(start);
  return std::from_chars(token.data(), token.data() + token.size(), value)
             .ec == std::errc::result_out_of_range;
}

/// Tally of what a batch of inputs exercised, so a sweep that stopped
/// reaching the interesting paths fails instead of passing vacuously.
struct Tally {
  int accepted = 0;
  int rejected = 0;
  int count_above_int32 = 0;
  int failed_token_at_end = 0;
};

/// Compare the two readers on one input; returns false on a mismatch.
bool check_input(const std::string& text, Tally& tally) {
  const Outcome got = outcome_of([&] { return read_hgr(std::string_view(text)); });
  // Both entry points must agree exactly.
  const Outcome via_stream = outcome_of([&] {
    std::istringstream in(text);
    return read_hgr(in);
  });
  EXPECT_EQ(got, via_stream) << "istream and string_view entry points differ";
  if (got != via_stream) return false;

  const std::string parse_error = typeid(ParseError).name();
  if (!got.ok && got.type == parse_error &&
      got.what.find("header count above") != std::string::npos) {
    ++tally.count_above_int32;
    const bool defect = header_count_above_int32(line_of(text, got.line));
    EXPECT_TRUE(defect) << "count-limit error without such a count: "
                        << got.what;
    return defect;
  }

  const Outcome want = outcome_of([&] {
    std::istringstream in(text);
    return legacy::read_hgr(in);
  });
  if (got == want) {
    ++(got.ok ? tally.accepted : tally.rejected);
    return true;
  }
  ++tally.failed_token_at_end;
  const bool defect =
      got.type == parse_error &&
      got.what.find("non-numeric token in net line") != std::string::npos &&
      ends_in_failed_token(line_of(text, got.line));
  EXPECT_TRUE(defect) << "new: " << describe(got)
                      << "\nlegacy: " << describe(want);
  return defect;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\v': out += "\\v"; break;
      case '\f': out += "\\f"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Input generators.
// ---------------------------------------------------------------------------

/// io_fuzz_test's byte-soup alphabet.
constexpr std::string_view kIoFuzzAlphabet =
    "0123456789 \t\n.%#-abcdefg .model.names net modules\\=";

char pick(Xoshiro256& rng, std::string_view chars) {
  return chars[static_cast<std::size_t>(rng.below(chars.size()))];
}

/// Soup over the io_fuzz alphabet.  Half the inputs open with a small
/// "<nets> <modules>" header and draw half their characters from the
/// alphabet's digits and space, so net lines parse often enough to reach
/// the pin checks and the builder.
std::string io_fuzz_input(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string out;
  const auto length = static_cast<std::size_t>(rng.below(401));
  const bool structured = rng.below(2) == 0;
  if (structured) {
    out += std::to_string(rng.below(6));
    out += ' ';
    out += std::to_string(1 + rng.below(12));
    out += '\n';
  }
  for (std::size_t i = 0; i < length; ++i) {
    if (structured && rng.below(2) == 0)
      out += pick(rng, "0123456789  \n");
    else
      out += pick(rng, kIoFuzzAlphabet);
  }
  return out;
}

/// The second alphabet: every whitespace operator>> skips, signs, 20-digit
/// runs (int64 overflow), int64 extremes, leading zeros and comment lines.
constexpr std::string_view kTokens[] = {
    " ", " ", "\t", "\r", "\v", "\f", "\n", "\n", "\n", "\r\n", "+", "-",
    "%", "% note\n", "\n%\n", "\n\t%x\n", "0", "1", "2", "3", "4", "5", "007",
    "+2", "-1", "12", "99999999999999999999", "12345678901234567890",
    "-9223372036854775808", "9223372036854775807", "9223372036854775808",
    "x", "."};
constexpr std::string_view kNetCounts[] = {"0", "1", "2", "3", "4",
                                           "+3", "-1", "03", "2", "3"};
constexpr std::string_view kModuleCounts[] = {"1", "2", "3", "5", "8",
                                              "+4", "-2", "0", "3", "4"};
// Counts outside int32 or int64.  Those above 2^31 - 1 wrap, under the
// legacy cast, to a negative or small count, so even a misclassified input
// cannot make the legacy reader allocate by a huge count.
constexpr std::string_view kHugeCounts[] = {
    "2147483648", "4294967297", "4294967300", "99999999999999999999"};
constexpr std::string_view kSeparators[] = {" ", " ", "\t", "\v", "\f",
                                            "\r", "  ", ""};
constexpr std::string_view kFormats[] = {
    "", "", "", " 0", " 1", " 1", " +1", " 10", " 11", " x", " -",
    " 99999999999999999999", " 1 junk", "1", "\r"};

template <std::size_t N>
std::string_view pick(Xoshiro256& rng, const std::string_view (&items)[N]) {
  return items[static_cast<std::size_t>(rng.below(N))];
}

std::string token_input(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string out;
  for (std::uint64_t i = rng.below(3); i > 0; --i)
    out += rng.below(2) == 0 ? "% header\n" : " \t\n";
  const std::uint64_t huge = rng.below(16);  // 0: nets, 1: modules
  out += pick(rng, kSeparators);
  out += huge == 0 ? pick(rng, kHugeCounts) : pick(rng, kNetCounts);
  out += pick(rng, kSeparators);
  if (out.back() != ' ' && rng.below(2) == 0) out += ' ';
  out += huge == 1 ? pick(rng, kHugeCounts) : pick(rng, kModuleCounts);
  out += pick(rng, kFormats);
  out += rng.below(4) == 0 ? "\r\n" : "\n";
  const std::uint64_t lines = rng.below(6);
  for (std::uint64_t l = 0; l < lines; ++l) {
    for (std::uint64_t t = rng.below(7); t > 0; --t) {
      out += pick(rng, kTokens);
      if (rng.below(2) == 0) out += ' ';
    }
    if (l + 1 < lines || rng.below(2) == 0) out += '\n';
  }
  return out;
}

constexpr std::uint64_t kShards = 10;
constexpr std::uint64_t kInputsPerShard = 12000;  // 120k per alphabet

class HgrOracleShard : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HgrOracleShard, IoFuzzAlphabetMatchesLegacyReader) {
  Tally tally;
  const std::uint64_t first = GetParam() * kInputsPerShard;
  for (std::uint64_t seed = first; seed < first + kInputsPerShard; ++seed) {
    const std::string text = io_fuzz_input(seed);
    ASSERT_TRUE(check_input(text, tally))
        << "seed " << seed << ", input " << quoted(text);
  }
  EXPECT_GE(tally.accepted, 500);
  EXPECT_GE(tally.rejected, 5000);
}

TEST_P(HgrOracleShard, WhitespaceSignDigitAlphabetMatchesLegacyReader) {
  Tally tally;
  const std::uint64_t first = (kShards + GetParam()) * kInputsPerShard;
  for (std::uint64_t seed = first; seed < first + kInputsPerShard; ++seed) {
    const std::string text = token_input(seed);
    ASSERT_TRUE(check_input(text, tally))
        << "seed " << seed << ", input " << quoted(text);
  }
  EXPECT_GE(tally.accepted, 500);
  EXPECT_GE(tally.rejected, 5000);
  EXPECT_GE(tally.count_above_int32, 400);
  EXPECT_GE(tally.failed_token_at_end, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HgrOracleShard,
                         ::testing::Range<std::uint64_t>(0, kShards));

/// The inputs the two defects were reported with, and their neighbours.
TEST(HgrOracle, DefectInputsNowRaiseParseError) {
  const struct {
    const char* text;
    const char* what;
  } cases[] = {
      {"1 4294967297\n4294967297\n", "line 1: header count above 2147483647"},
      {"1 2147483648\n1 2\n", "line 1: header count above 2147483647"},
      {"2147483648 1\n1\n", "line 1: header count above 2147483647"},
      {"1 3\n1 2 -\n", "line 2: non-numeric token in net line"},
      {"1 3\n-\n", "line 2: non-numeric token in net line"},
      {"1 3\n1 2+\r\n", "line 2: non-numeric token in net line"},
      {"1 3 1\n4 1 -\n", "line 2: non-numeric token in net line"},
      {"1 3\n1 2 99999999999999999999\n",
       "line 2: non-numeric token in net line"},
      {"1 3\n1 -99999999999999999999", "line 2: non-numeric token in net line"},
  };
  for (const auto& c : cases) {
    const Outcome got =
        outcome_of([&] { return read_hgr(std::string_view(c.text)); });
    EXPECT_EQ(got.type, typeid(ParseError).name()) << quoted(c.text);
    EXPECT_EQ(got.what, c.what) << quoted(c.text);
    Tally tally;
    EXPECT_TRUE(check_input(c.text, tally)) << quoted(c.text);
  }
}

// ---------------------------------------------------------------------------
// write_hgr -> read_hgr round trips of generated netlists.
// ---------------------------------------------------------------------------

Hypergraph generated(std::int32_t modules) {
  GeneratorConfig config;
  config.name = "hgr-oracle-" + std::to_string(modules);
  config.num_modules = modules;
  config.num_nets = modules + modules / 10;
  return generate_circuit(config).hypergraph;
}

/// The same netlist with seeded net weights in [1, 2^31 - 1].
Hypergraph weighted(const Hypergraph& h, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  HypergraphBuilder builder(h.num_modules());
  for (NetId n = 0; n < h.num_nets(); ++n) {
    const auto weight =
        rng.below(8) == 0
            ? std::numeric_limits<std::int32_t>::max()
            : static_cast<std::int32_t>(1 + rng.below(1000));
    builder.add_net(h.pins(n), weight);
  }
  return builder.build();
}

class HgrRoundTrip : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(HgrRoundTrip, WriteThenReadIsBitIdentical) {
  const Hypergraph plain = generated(GetParam());
  ASSERT_EQ(plain.num_modules(), GetParam());
  for (const Hypergraph& h : {plain, weighted(plain, 7)}) {
    std::ostringstream out;
    write_hgr(out, h);
    const std::string text = out.str();
    EXPECT_EQ(outcome_of([&] { return read_hgr(std::string_view(text)); }),
              snapshot(h))
        << (h.is_unweighted() ? "unweighted" : "weighted");
    std::istringstream in(text);
    EXPECT_EQ(outcome_of([&] { return read_hgr(in); }), snapshot(h));
  }
}

INSTANTIATE_TEST_SUITE_P(Modules, HgrRoundTrip,
                         ::testing::Values(600, 2400, 150000));

}  // namespace
}  // namespace netpart::io
