#include "io/netlist_io.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>

namespace netpart::io {
namespace {

TEST(HgrReader, ParsesBasicFile) {
  std::istringstream in("3 4\n1 2\n2 3 4\n1 4\n");
  const Hypergraph h = read_hgr(in);
  EXPECT_EQ(h.num_nets(), 3);
  EXPECT_EQ(h.num_modules(), 4);
  EXPECT_TRUE(h.contains(0, 0));
  EXPECT_TRUE(h.contains(0, 1));
  EXPECT_TRUE(h.contains(1, 3));
}

TEST(HgrReader, SkipsCommentsAndBlankLines) {
  std::istringstream in("% header comment\n\n2 2\n% net comment\n1 2\n\n1\n");
  const Hypergraph h = read_hgr(in);
  EXPECT_EQ(h.num_nets(), 2);
  EXPECT_EQ(h.net_size(1), 1);
}

TEST(HgrReader, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_THROW(read_hgr(in), ParseError);
}

TEST(HgrReader, RejectsOutOfRangePin) {
  std::istringstream in("1 2\n1 3\n");
  EXPECT_THROW(read_hgr(in), ParseError);
}

TEST(HgrReader, RejectsZeroPin) {
  std::istringstream in("1 2\n0 1\n");
  EXPECT_THROW(read_hgr(in), ParseError);
}

TEST(HgrReader, RejectsTruncatedFile) {
  std::istringstream in("3 4\n1 2\n");
  EXPECT_THROW(read_hgr(in), ParseError);
}

TEST(HgrReader, ParsesNetWeightsWithFormatFlagOne) {
  // hMETIS fmt flag 1: the first number on each net line is its weight.
  std::istringstream in("2 3 1\n5 1 2\n1 2 3\n");
  const Hypergraph h = read_hgr(in);
  EXPECT_EQ(h.net_weight(0), 5);
  EXPECT_EQ(h.net_weight(1), 1);
  EXPECT_EQ(h.net_size(0), 2);
  EXPECT_EQ(h.total_net_weight(), 6);
  EXPECT_FALSE(h.is_unweighted());
}

TEST(HgrReader, RejectsVertexWeightFormatFlags) {
  std::istringstream in10("1 2 10\n1 2\n");
  EXPECT_THROW(read_hgr(in10), ParseError);
  std::istringstream in11("1 2 11\n1 1 2\n");
  EXPECT_THROW(read_hgr(in11), ParseError);
}

TEST(HgrReader, RejectsBadNetWeight) {
  std::istringstream zero("1 2 1\n0 1 2\n");
  EXPECT_THROW(read_hgr(zero), ParseError);
}

TEST(HgrReader, ReadsNumbersByExtractionRules) {
  // C-locale operator>> rules: any isspace before a number, an optional
  // sign, leading zeros, no separator needed after a number.
  const Hypergraph h =
      read_hgr(std::string_view("%c\r\n2 4 +1\r\n3\v+1\f004\r\n7 2\t\v\n"));
  ASSERT_EQ(h.num_nets(), 2);
  EXPECT_EQ(h.net_weight(0), 3);
  ASSERT_EQ(h.net_size(0), 2);
  EXPECT_TRUE(h.contains(0, 0));
  EXPECT_TRUE(h.contains(0, 3));
  EXPECT_FALSE(h.contains(0, 1));
  EXPECT_EQ(h.net_weight(1), 7);
  EXPECT_TRUE(h.contains(1, 1));
  EXPECT_THROW(read_hgr(std::string_view("1 4\n1-2\n")), ParseError);
}

TEST(HgrRoundTrip, WeightedWriteThenRead) {
  HypergraphBuilder b(3);
  b.add_net({0, 1}, 7);
  b.add_net({1, 2});
  const Hypergraph original = b.build();
  std::stringstream buffer;
  write_hgr(buffer, original);
  const Hypergraph parsed = read_hgr(buffer);
  EXPECT_EQ(parsed.net_weight(0), 7);
  EXPECT_EQ(parsed.net_weight(1), 1);
  EXPECT_EQ(parsed.net_size(0), 2);
}

TEST(HgrReader, RejectsGarbageToken) {
  std::istringstream in("1 2\n1 banana\n");
  EXPECT_THROW(read_hgr(in), ParseError);
}

TEST(HgrRoundTrip, WriteThenReadIdentical) {
  HypergraphBuilder b(5);
  b.add_net({0, 4});
  b.add_net({1, 2, 3});
  b.add_net({0, 1, 2, 3, 4});
  const Hypergraph original = b.build();

  std::stringstream buffer;
  write_hgr(buffer, original);
  const Hypergraph parsed = read_hgr(buffer);

  ASSERT_EQ(parsed.num_nets(), original.num_nets());
  ASSERT_EQ(parsed.num_modules(), original.num_modules());
  for (NetId n = 0; n < original.num_nets(); ++n) {
    const auto a = original.pins(n);
    const auto b2 = parsed.pins(n);
    ASSERT_EQ(a.size(), b2.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b2[i]);
  }
}

TEST(PartitionIo, RoundTrip) {
  Partition p(4);
  p.assign(1, Side::kRight);
  p.assign(3, Side::kRight);
  std::stringstream buffer;
  write_partition(buffer, p);
  const Partition parsed = read_partition(buffer);
  EXPECT_EQ(parsed, p);
}

TEST(PartitionIo, AcceptsDigitAliases) {
  std::istringstream in("0\n1\n0\n");
  const Partition p = read_partition(in);
  ASSERT_EQ(p.num_modules(), 3);
  EXPECT_EQ(p.side(0), Side::kLeft);
  EXPECT_EQ(p.side(1), Side::kRight);
}

TEST(PartitionIo, RejectsBadCharacter) {
  std::istringstream in("L\nX\n");
  EXPECT_THROW(read_partition(in), ParseError);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_hgr_file("/nonexistent/path/file.hgr"),
               std::runtime_error);
}

TEST(FileIo, NonRegularFilesAreRefused) {
  // A device or directory is refused at open, before any byte is read.
  // /dev/zero stays out of this test: a reader that does not refuse it
  // reads until memory runs out.
  for (const std::string path : {"/dev/null", "/"}) {
    try {
      (void)read_hgr_file(path);
      ADD_FAILURE() << path << " was read";
    } catch (const ParseError& e) {
      ADD_FAILURE() << path << " was parsed: " << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "cannot open " + path + ": not a regular file");
    }
  }
}

TEST(FileIo, FifoIsRefusedWithoutWaitingForAWriter) {
  // No process ever opens this FIFO for writing, so a reader that waits
  // for one hangs; ctest's TIMEOUT turns that into a failure.
  const std::string path =
      ::testing::TempDir() + "/netpart_io_test_" + std::to_string(::getpid()) +
      ".fifo";
  ::unlink(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  try {
    (void)read_hgr_file(path);
    ADD_FAILURE() << "FIFO was read";
  } catch (const ParseError& e) {
    ADD_FAILURE() << "FIFO was parsed: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot open " + path + ": not a regular file");
  }
  ::unlink(path.c_str());
}

TEST(FileIo, WriteAndReadBack) {
  HypergraphBuilder b(3);
  b.add_net({0, 1, 2});
  const Hypergraph h = b.build();
  const std::string path = ::testing::TempDir() + "/netpart_io_test.hgr";
  write_hgr_file(path, h);
  const Hypergraph parsed = read_hgr_file(path);
  EXPECT_EQ(parsed.num_nets(), 1);
  EXPECT_EQ(parsed.net_size(0), 3);
}

}  // namespace
}  // namespace netpart::io
