#include "io/netlist_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace netpart::io {

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

/// Largest header count: module and net ids are int32.
constexpr std::int64_t kMaxHgrCount = std::numeric_limits<std::int32_t>::max();

/// Walks .hgr text line by line as std::getline does (lines end at '\n';
/// a final line without one still counts), skipping blank and '%' lines.
class HgrLines {
 public:
  explicit HgrLines(std::string_view text) : rest_(text) {}

  /// Next content line; false at end of input.
  bool next(std::string_view& line) {
    while (!rest_.empty()) {
      const std::size_t end = rest_.find('\n');
      line = rest_.substr(0, end);
      rest_.remove_prefix(end == std::string_view::npos ? rest_.size()
                                                        : end + 1);
      ++number_;
      std::size_t i = 0;
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      if (i < line.size() && line[i] != '%') return true;
    }
    return false;
  }

  /// 1-based number of the line last returned (0 before the first).
  [[nodiscard]] std::int64_t number() const { return number_; }

 private:
  std::string_view rest_;
  std::int64_t number_ = 0;
};

enum class Scan { kValue, kEnd, kBad };

/// Reads int64 tokens off one line by the C-locale `operator>>` rules:
/// skip isspace, optional sign, decimal digits up to the first non-digit
/// (no separator needed between tokens).  kEnd: only whitespace was left.
/// kBad: a token that is not a number, or one that overflows int64.
class IntScanner {
 public:
  explicit IntScanner(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  Scan next(std::int64_t& value) {
    while (p_ != end_ && is_c_space(*p_)) ++p_;
    if (p_ == end_) return Scan::kEnd;
    const bool negative = *p_ == '-';
    if (negative || *p_ == '+') ++p_;
    const char* const digits = p_;
    std::uint64_t magnitude = 0;
    for (; p_ != end_ && is_digit(*p_); ++p_)
      magnitude = 10 * magnitude + static_cast<std::uint64_t>(*p_ - '0');
    if (p_ == digits) return Scan::kBad;
    if (p_ - digits > 18) {
      // Only a long run can overflow.  Up to 19 significant digits the
      // sum above is exact (10^19 < 2^64); more always exceed int64.
      // |INT64_MIN| is one more than INT64_MAX.
      const std::uint64_t limit =
          static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
          (negative ? 1 : 0);
      const char* first = digits;
      while (first != p_ && *first == '0') ++first;
      if (p_ - first > 19 || magnitude > limit) return Scan::kBad;
    }
    value = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
    return Scan::kValue;
  }

 private:
  static bool is_c_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  const char* p_;
  const char* end_;
};

/// Closes a file descriptor at scope exit.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  ~FdCloser() { ::close(fd_); }

 private:
  int fd_;
};

}  // namespace

Hypergraph read_hgr(std::string_view text) {
  HgrLines lines(text);
  std::string_view line;
  if (!lines.next(line)) throw ParseError("empty .hgr input", lines.number());

  IntScanner header(line);
  std::int64_t num_nets = 0;
  std::int64_t num_modules = 0;
  if (header.next(num_nets) != Scan::kValue ||
      header.next(num_modules) != Scan::kValue)
    throw ParseError("expected '<nets> <modules>' header", lines.number());
  std::int64_t fmt = 0;
  bool net_weights = false;
  if (header.next(fmt) == Scan::kValue) {
    // hMETIS format flags: 1 = hyperedge weights, 10 = vertex weights,
    // 11 = both.  Vertex weights have no meaning in this library (the
    // spectral methods are area-oblivious, see Section 4 of the paper).
    if (fmt == 1)
      net_weights = true;
    else if (fmt != 0)
      throw ParseError("unsupported .hgr format flag " + std::to_string(fmt) +
                           " (only 0 and 1 are accepted)",
                       lines.number());
  }
  if (num_nets < 0 || num_modules < 0)
    throw ParseError("negative counts in header", lines.number());
  if (num_nets > kMaxHgrCount || num_modules > kMaxHgrCount)
    throw ParseError("header count above " + std::to_string(kMaxHgrCount),
                     lines.number());

  HypergraphBuilder builder(static_cast<std::int32_t>(num_modules));
  std::vector<ModuleId> pins;
  for (std::int64_t n = 0; n < num_nets; ++n) {
    if (!lines.next(line))
      throw ParseError("unexpected EOF: expected " + std::to_string(num_nets) +
                           " nets, got " + std::to_string(n),
                       lines.number());
    IntScanner ls(line);
    std::int64_t weight = 1;
    if (net_weights) {
      if (ls.next(weight) != Scan::kValue || weight < 1 ||
          weight > std::numeric_limits<std::int32_t>::max())
        throw ParseError("bad net weight", lines.number());
    }
    pins.clear();
    std::int64_t pin = 0;
    for (Scan s; (s = ls.next(pin)) != Scan::kEnd;) {
      if (s == Scan::kBad)
        throw ParseError("non-numeric token in net line", lines.number());
      if (pin < 1 || pin > num_modules)
        throw ParseError("pin " + std::to_string(pin) + " out of range",
                         lines.number());
      pins.push_back(static_cast<ModuleId>(pin - 1));
    }
    builder.add_net(pins, static_cast<std::int32_t>(weight));
  }
  return builder.build();
}

Hypergraph read_hgr(std::istream& in) {
  std::string bytes;
  std::array<char, 1 << 14> chunk{};
  while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0)
    bytes.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  return read_hgr(std::string_view(bytes));
}

Hypergraph read_hgr_file(const std::string& path) {
  // O_NONBLOCK so that opening a FIFO never waits for a writer; the fstat
  // check then refuses it, and every other non-regular file (/dev/zero
  // would otherwise be read until memory runs out).
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  const FdCloser closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode))
    throw std::runtime_error("cannot open " + path + ": not a regular file");
  // One spare byte, so a file that keeps its fstat size is read to EOF
  // without growing the buffer.
  std::string bytes(static_cast<std::size_t>(st.st_size) + 1, '\0');
  std::size_t used = 0;
  for (;;) {
    if (used == bytes.size()) bytes.resize(2 * bytes.size());
    const ::ssize_t got = ::read(fd, bytes.data() + used, bytes.size() - used);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("cannot read " + path);
    }
    used += static_cast<std::size_t>(got);
  }
  bytes.resize(used);
  return read_hgr(std::string_view(bytes));
}

void write_hgr(std::ostream& out, const Hypergraph& h) {
  const bool weighted = !h.is_unweighted();
  out << h.num_nets() << ' ' << h.num_modules();
  if (weighted) out << " 1";
  out << '\n';
  for (NetId n = 0; n < h.num_nets(); ++n) {
    bool first = true;
    if (weighted) {
      out << h.net_weight(n);
      first = false;
    }
    for (const ModuleId m : h.pins(n)) {
      if (!first) out << ' ';
      out << (m + 1);
      first = false;
    }
    out << '\n';
  }
}

void write_hgr_file(const std::string& path, const Hypergraph& h) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_hgr(out, h);
}

Hypergraph read_netd(std::istream& in) {
  std::string line;
  std::int64_t line_no = 0;
  std::string name;
  std::int64_t num_modules = -1;
  HypergraphBuilder* builder = nullptr;
  // We need num_modules before constructing the builder; store nets seen
  // before the builder exists is disallowed by the format (modules line
  // must precede nets).
  std::optional<HypergraphBuilder> opt_builder;
  std::vector<ModuleId> pins;

  while (next_content_line(in, line, line_no, '#')) {
    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;
    if (keyword == "netlist") {
      ls >> name;
    } else if (keyword == "modules") {
      if (!(ls >> num_modules) || num_modules < 0)
        throw ParseError("bad module count", line_no);
      opt_builder.emplace(static_cast<std::int32_t>(num_modules));
      builder = &*opt_builder;
    } else if (keyword == "net") {
      if (builder == nullptr)
        throw ParseError("'net' before 'modules'", line_no);
      pins.clear();
      std::int64_t pin = 0;
      while (ls >> pin) {
        if (pin < 0 || pin >= num_modules)
          throw ParseError("pin " + std::to_string(pin) + " out of range",
                           line_no);
        pins.push_back(static_cast<ModuleId>(pin));
      }
      if (!ls.eof()) throw ParseError("non-numeric pin", line_no);
      builder->add_net(pins);
    } else {
      throw ParseError("unknown keyword '" + keyword + "'", line_no);
    }
  }
  if (builder == nullptr) throw ParseError("missing 'modules' line", line_no);
  builder->set_name(std::move(name));
  return builder->build();
}

void write_netd(std::ostream& out, const Hypergraph& h) {
  if (!h.name().empty()) out << "netlist " << h.name() << '\n';
  out << "modules " << h.num_modules() << '\n';
  for (NetId n = 0; n < h.num_nets(); ++n) {
    out << "net";
    for (const ModuleId m : h.pins(n)) out << ' ' << m;
    out << '\n';
  }
}

Partition read_partition(std::istream& in) {
  std::vector<Side> sides;
  std::string line;
  std::int64_t line_no = 0;
  while (next_content_line(in, line, line_no, '#')) {
    std::istringstream ls(line);
    char c = 0;
    ls >> c;
    if (c == 'L' || c == '0')
      sides.push_back(Side::kLeft);
    else if (c == 'R' || c == '1')
      sides.push_back(Side::kRight);
    else
      throw ParseError("expected 'L' or 'R'", line_no);
  }
  return Partition(std::move(sides));
}

void write_partition(std::ostream& out, const Partition& p) {
  for (ModuleId m = 0; m < p.num_modules(); ++m)
    out << (p.side(m) == Side::kLeft ? 'L' : 'R') << '\n';
}

}  // namespace netpart::io
