/// Tests for the crash-safe flight recorder (src/obs/flight_recorder.*):
/// seqlock ring integrity under concurrent writers (the TSan pass in
/// check.sh runs this binary instrumented), wrap semantics, the
/// deterministic NDJSON line format, and the async-signal-safe fd dump.
/// The signal path itself (SIGQUIT on a live daemon) is covered end to end
/// in server_test and scripts/check.sh postmortem_smoke.

#include "obs/flight_recorder.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace netpart::obs {
namespace {

/// The recorder is a process singleton; configure(0) first so records from
/// a previous test never leak into this one (same-capacity reconfigures
/// are no-ops by design).
FlightRecorder& fresh(std::size_t capacity) {
  FlightRecorder& fr = FlightRecorder::instance();
  fr.configure(0);
  fr.configure(capacity);
  return fr;
}

/// Every field derived from one seed, so a torn slot (words from two
/// different writers) cannot pass expect_consistent below.
FlightRecord make_record(std::uint64_t seed) {
  FlightRecord r;
  r.trace_hi = seed * 0x9e3779b97f4a7c15ULL;
  r.trace_lo = ~seed;
  r.span_id = seed ^ 0xdeadbeefULL;
  r.request_id = static_cast<std::int64_t>(seed);
  r.wall_ms = static_cast<std::int64_t>(seed * 3);
  r.lane = static_cast<std::int32_t>(seed % 7);
  r.cls = static_cast<std::uint8_t>(seed % 3);
  r.outcome = static_cast<std::uint8_t>(FlightOutcome::kOk);
  r.set_op("partition");
  for (std::size_t s = 0; s < kNumStages; ++s)
    r.stage_us[s] = static_cast<std::int32_t>((seed + s) & 0xffff);
  return r;
}

void expect_consistent(const FlightRecord& r) {
  const auto seed = static_cast<std::uint64_t>(r.request_id);
  EXPECT_EQ(r.trace_hi, seed * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(r.trace_lo, ~seed);
  EXPECT_EQ(r.span_id, seed ^ 0xdeadbeefULL);
  EXPECT_EQ(r.wall_ms, static_cast<std::int64_t>(seed * 3));
  EXPECT_EQ(r.lane, static_cast<std::int32_t>(seed % 7));
  EXPECT_EQ(r.cls, static_cast<std::uint8_t>(seed % 3));
  EXPECT_STREQ(r.op, "partition");
  for (std::size_t s = 0; s < kNumStages; ++s)
    EXPECT_EQ(r.stage_us[s], static_cast<std::int32_t>((seed + s) & 0xffff));
}

TEST(FlightRecorder, ConfigureZeroDisables) {
  FlightRecorder& fr = fresh(0);
  EXPECT_FALSE(fr.enabled());
  EXPECT_EQ(fr.capacity(), 0u);
  fr.record(make_record(1));
  fr.note("ignored", 42);
  EXPECT_TRUE(fr.snapshot_records().empty());
  EXPECT_TRUE(fr.snapshot_notes().empty());
  EXPECT_EQ(fr.records_to_json(), "[]");
  EXPECT_EQ(fr.notes_to_json(), "[]");
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder& fr = fresh(5);
  EXPECT_TRUE(fr.enabled());
  EXPECT_EQ(fr.capacity(), 8u);
}

TEST(FlightRecorder, RecordSnapshotRoundTrip) {
  FlightRecorder& fr = fresh(8);
  for (std::uint64_t seed = 10; seed < 15; ++seed)
    fr.record(make_record(seed));
  const std::vector<FlightRecord> got = fr.snapshot_records();
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].request_id, static_cast<std::int64_t>(10 + i))
        << "snapshot must be oldest-first";
    expect_consistent(got[i]);
  }
  EXPECT_EQ(fr.recorded(), 5u);
  EXPECT_EQ(fr.overwritten(), 0u);
}

TEST(FlightRecorder, WrapKeepsNewest) {
  FlightRecorder& fr = fresh(8);
  for (std::uint64_t seed = 0; seed < 20; ++seed)
    fr.record(make_record(seed));
  const std::vector<FlightRecord> got = fr.snapshot_records();
  ASSERT_EQ(got.size(), 8u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].request_id, static_cast<std::int64_t>(12 + i));
    expect_consistent(got[i]);
  }
  EXPECT_EQ(fr.recorded(), 20u);
  EXPECT_EQ(fr.overwritten(), 12u);
}

TEST(FlightRecorder, OpAndKindNamesTruncateSafely) {
  FlightRecord r;
  r.set_op("a-very-long-operation-name");
  EXPECT_EQ(std::strlen(r.op), sizeof(r.op) - 1);
  EXPECT_EQ(std::string(r.op), std::string("a-very-long-operation-name")
                                   .substr(0, sizeof(r.op) - 1));
  FlightNote n;
  n.set_kind("an-even-longer-note-kind-label-that-wraps");
  EXPECT_EQ(std::strlen(n.kind), sizeof(n.kind) - 1);
}

TEST(FlightRecorder, JsonLineFormatIsExact) {
  FlightRecorder& fr = fresh(4);
  FlightRecord r;
  r.trace_hi = 0x0011223344556677ULL;
  r.trace_lo = 0x8899aabbccddeeffULL;
  r.span_id = 0x0123456789abcdefULL;
  r.request_id = 7;
  r.wall_ms = 1234;
  r.lane = 2;
  r.cls = 1;
  r.outcome = static_cast<std::uint8_t>(FlightOutcome::kDeadline);
  r.set_op("partition");
  r.stage_us = {1, 2, 3, 4, 5, 6};
  fr.record(r);
  EXPECT_EQ(fr.records_to_json(),
            "[{\"type\":\"request\","
            "\"trace_id\":\"00112233445566778899aabbccddeeff\","
            "\"span_id\":\"0123456789abcdef\",\"id\":7,\"ts_ms\":1234,"
            "\"lane\":2,\"class\":\"warm\",\"outcome\":\"deadline\","
            "\"op\":\"partition\",\"stages_us\":{\"parse\":1,\"admission\":2,"
            "\"queue\":3,\"execute\":4,\"serialize\":5,\"write\":6}}]");
}

TEST(FlightRecorder, UntracedRecordRendersNullTraceId) {
  FlightRecorder& fr = fresh(4);
  FlightRecord r;
  r.request_id = 3;
  r.set_op("ping");
  fr.record(r);
  const std::string json = fr.records_to_json();
  EXPECT_NE(json.find("\"trace_id\":null,\"span_id\":null"),
            std::string::npos)
      << json;
}

TEST(FlightRecorder, NotesRoundTrip) {
  FlightRecorder& fr = fresh(16);
  fr.note("server.start", 4);
  fr.note("sessions.evicted", 2);
  const std::vector<FlightNote> notes = fr.snapshot_notes();
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_STREQ(notes[0].kind, "server.start");
  EXPECT_EQ(notes[0].value, 4);
  EXPECT_STREQ(notes[1].kind, "sessions.evicted");
  EXPECT_EQ(notes[1].value, 2);
  EXPECT_NE(fr.notes_to_json().find("\"kind\":\"sessions.evicted\","
                                    "\"value\":2"),
            std::string::npos);
}

/// Seqlock integrity: hammer the ring from several writers while a reader
/// drains concurrently.  Every record a drain returns must be internally
/// consistent — a torn slot must be discarded, never surfaced.  The TSan
/// build of this test is the race-freedom proof for the relaxed-atomic
/// payload design.
TEST(FlightRecorder, ConcurrentWritersNeverSurfaceTornRecords) {
  FlightRecorder& fr = fresh(64);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 10000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};

  std::thread reader([&] {
    const auto drain = [&] {
      for (const FlightRecord& r : fr.snapshot_records()) {
        expect_consistent(r);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    };
    while (!done.load(std::memory_order_acquire)) drain();
    // While writers are hammering the ring every slot can be overwritten
    // mid-drain, so concurrent drains may legitimately discard everything.
    // `done` is set after the writers join; one post-quiescence drain is
    // guaranteed to surface the full ring.
    drain();
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&fr, t] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) * 1000000;
      for (std::uint64_t i = 0; i < kPerWriter; ++i)
        fr.record(make_record(base + i));
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(fr.recorded(), kWriters * kPerWriter);
  const std::vector<FlightRecord> final_records = fr.snapshot_records();
  // With all writers quiescent every surviving slot validates.
  EXPECT_EQ(final_records.size(), 64u);
  for (const FlightRecord& r : final_records) expect_consistent(r);
  EXPECT_GT(reads.load(), 0u) << "reader never observed a record";
}

TEST(FlightRecorder, DumpToFdWritesHeaderAndNdjsonLines) {
  FlightRecorder& fr = fresh(8);
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    fr.record(make_record(seed));
  fr.note("server.start", 1);

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  const std::int64_t bytes = fr.dump_to_fd(fileno(tmp), 9);
  ASSERT_GT(bytes, 0);

  std::rewind(tmp);
  std::string body(static_cast<std::size_t>(bytes), '\0');
  ASSERT_EQ(std::fread(body.data(), 1, body.size(), tmp), body.size());
  std::fclose(tmp);

  // One header plus one line per record and note, each '\n'-terminated.
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = body.find('\n'); nl != std::string::npos;
       nl = body.find('\n', start)) {
    lines.push_back(body.substr(start, nl - start));
    start = nl + 1;
  }
  EXPECT_EQ(start, body.size()) << "dump must end with a newline";
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find("{\"type\":\"postmortem\",\"signal\":9,"),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"recorded\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"capacity\":8"), std::string::npos);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].find("{\"type\":\"request\""),
              0u);
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"id\":" + std::to_string(i) + ","),
              std::string::npos);
  }
  EXPECT_EQ(lines[4].find("{\"type\":\"note\""), 0u);
  EXPECT_NE(lines[4].find("\"kind\":\"server.start\""), std::string::npos);
}

/// The post-mortem dump and the debug-op drains share the rings' one
/// reader: on a wrapped ring the dump's record and note lines must be the
/// drains' array elements byte for byte, oldest first.
TEST(FlightRecorder, DumpAndDrainAgreeOnAWrappedRing) {
  FlightRecorder& fr = fresh(8);
  for (std::uint64_t seed = 0; seed < 20; ++seed)
    fr.record(make_record(seed));
  for (std::int64_t i = 0; i < 5; ++i) fr.note("tick", i);

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  const std::int64_t bytes = fr.dump_to_fd(fileno(tmp), 0);
  ASSERT_GT(bytes, 0);
  std::rewind(tmp);
  std::string body(static_cast<std::size_t>(bytes), '\0');
  ASSERT_EQ(std::fread(body.data(), 1, body.size(), tmp), body.size());
  std::fclose(tmp);

  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = body.find('\n'); nl != std::string::npos;
       nl = body.find('\n', start)) {
    lines.push_back(body.substr(start, nl - start));
    start = nl + 1;
  }
  // Header, the 8 surviving records, and the note ring's 2 slots (a
  // quarter of the record capacity).
  ASSERT_EQ(lines.size(), 1u + 8u + 2u);
  EXPECT_NE(lines[0].find("\"recorded\":20,\"overwritten\":12,"),
            std::string::npos)
      << lines[0];

  std::string records = "[";
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string& line = lines[1 + i];
    EXPECT_EQ(line.find("{\"type\":\"request\""), 0u) << line;
    EXPECT_NE(line.find("\"id\":" + std::to_string(12 + i) + ","),
              std::string::npos)
        << "records must be oldest first: " << line;
    if (i != 0) records += ',';
    records += line;
  }
  records += ']';
  EXPECT_EQ(records, fr.records_to_json());

  std::string notes = "[";
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string& line = lines[9 + i];
    EXPECT_EQ(line.find("{\"type\":\"note\""), 0u) << line;
    EXPECT_NE(line.find("\"value\":" + std::to_string(3 + i) + "}"),
              std::string::npos)
        << "notes must be oldest first: " << line;
    if (i != 0) notes += ',';
    notes += line;
  }
  notes += ']';
  EXPECT_EQ(notes, fr.notes_to_json());
}

TEST(FlightRecorder, ReconfigureSameCapacityKeepsRecords) {
  FlightRecorder& fr = fresh(8);
  fr.record(make_record(42));
  fr.configure(8);  // server restart with unchanged options: a no-op
  const std::vector<FlightRecord> got = fr.snapshot_records();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, 42);
}

}  // namespace
}  // namespace netpart::obs
