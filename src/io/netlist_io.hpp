#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file netlist_io.hpp
/// Reading and writing netlist hypergraphs and partitions.
///
/// Netlists use the hMETIS ".hgr" format: the first non-comment line is
/// "<num_nets> <num_modules>", then one line per net lists its 1-based
/// pins.  Comment lines start with '%'.  This is the de-facto exchange
/// format for hypergraph partitioning benchmarks (the MCNC suites circulate
/// in it), so real benchmark files drop straight in.  read_hgr documents
/// the exact grammar.
///
/// Partitions are written/read as one side character ('L'/'R') per module
/// line, so results can be diffed between runs.

namespace netpart::io {

/// Raised on any malformed input.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::int64_t line)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_(line) {}
  [[nodiscard]] std::int64_t line() const { return line_; }

 private:
  std::int64_t line_;
};

/// Parse hMETIS .hgr text in one forward pass over the bytes, without
/// copying them.  The accepted grammar:
///  - Lines end at '\n'.  A line that is empty or holds only spaces and
///    tabs, or whose first character after them is '%', is skipped.  Any
///    other line is a content line: a net line holding only "\r" is an
///    empty net, not a blank line.
///  - Numbers follow the C-locale `operator>>` rules: leading whitespace
///    (space, \t, \v, \f, \r) is skipped, then an optional '+' or '-',
///    then decimal digits up to the first non-digit.  No separator is
///    needed between numbers ("1-2" reads 1, then -2).  A value outside
///    int64 does not parse.
///  - The first content line holds <nets> <modules> [<fmt>].  Both counts
///    must lie in [0, 2147483647].  <fmt> is 0 (unweighted) or 1 (the
///    first number of each net line is that net's weight, in
///    [1, 2147483647]); any other flag, 10 and 11 (vertex weights)
///    included, raises ParseError.  Text after <fmt> is ignored, as is a
///    third token that does not parse.
///  - The next <nets> content lines list the pins, 1-based and in
///    [1, <modules>]; duplicates merge.  A token that does not parse, a
///    lone sign or an int64 overflow included, raises ParseError, as does
///    EOF before the last net.  Text after the last net is ignored.
/// ParseError carries the 1-based number of the offending line (at EOF,
/// of the last line read).
[[nodiscard]] Hypergraph read_hgr(std::string_view text);

/// Read the rest of `in` once and parse it as read_hgr(text) does.
[[nodiscard]] Hypergraph read_hgr(std::istream& in);

/// Read an .hgr file from disk.  Throws std::runtime_error ("cannot open")
/// if the path cannot be opened or is not a regular file: a FIFO, device
/// or directory is refused without being read or waited on.
[[nodiscard]] Hypergraph read_hgr_file(const std::string& path);

/// Serialize to hMETIS .hgr.
void write_hgr(std::ostream& out, const Hypergraph& h);

/// Write an .hgr file to disk; throws std::runtime_error if unopenable.
void write_hgr_file(const std::string& path, const Hypergraph& h);

/// Read a partition: one 'L' or 'R' per line, one line per module.
[[nodiscard]] Partition read_partition(std::istream& in);

/// Write a partition in the same one-character-per-line format.
void write_partition(std::ostream& out, const Partition& p);

}  // namespace netpart::io
