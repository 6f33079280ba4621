/// End-to-end tests of netpartd: real Unix-socket round trips against an
/// in-process Server, with responses compared bit-for-bit against direct
/// RepartitionSession calls.  The server must add *zero* numeric noise: the
/// protocol carries %.17g doubles and verbatim assignments, so equality
/// here is exact string/int equality, never EXPECT_NEAR.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_context.hpp"
#include "repart/edit_script.hpp"
#include "repart/session.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "server/runtime/admission.hpp"
#include "server/server.hpp"

namespace netpart::server {
namespace {

std::atomic<int> g_socket_counter{0};

std::string unique_socket() {
  return "@netpart-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(g_socket_counter.fetch_add(1));
}

/// The ECO script every edit test uses; valid against any benchmark with a
/// handful of modules (adds never reference pins of existing nets).
constexpr const char* kEcoScript =
    "add-module\n"
    "add-net eco0 0 1 2\n"
    "commit\n"
    "remove-net n1\n"
    "add-net eco1 3 4\n";

std::string assignment_of(const Partition& p) {
  std::string out;
  for (const Side s : p.sides()) out.push_back(s == Side::kLeft ? 'L' : 'R');
  return out;
}

/// Server running on its own I/O thread for the duration of a test.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options) : server_(std::move(options)) {
    std::string error;
    if (!server_.start(error)) ADD_FAILURE() << "start: " << error;
    io_thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerFixture() { stop(); }

  void stop() {
    server_.request_stop();
    if (io_thread_.joinable()) io_thread_.join();
  }

  [[nodiscard]] Server& server() { return server_; }

 private:
  Server server_;
  std::thread io_thread_;
};

ServerOptions test_options(const std::string& socket) {
  ServerOptions options;
  options.socket_path = socket;
  options.enable_debug_ops = true;
  return options;
}

/// round_trip_json with failure reporting.
JsonValue rpc(Client& client, const std::string& request) {
  JsonValue response;
  EXPECT_TRUE(client.round_trip_json(request, response))
      << request << " -> " << client.last_error();
  return response;
}

std::string get_string(const JsonValue& v, std::string_view key) {
  const JsonValue* f = v.find(key);
  return (f != nullptr && f->is_string()) ? f->string : std::string();
}

double get_number(const JsonValue& v, std::string_view key) {
  const JsonValue* f = v.find(key);
  return (f != nullptr && f->is_number()) ? f->number : -1.0;
}

bool get_bool(const JsonValue& v, std::string_view key) {
  const JsonValue* f = v.find(key);
  return f != nullptr && f->is_bool() && f->boolean;
}

bool is_ok(const JsonValue& v) { return get_bool(v, "ok"); }

std::string error_code(const JsonValue& v) {
  const JsonValue* e = v.find("error");
  return e != nullptr ? get_string(*e, "code") : std::string();
}

std::string json_quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

TEST(ServerTest, PingSessionsAndStructuredErrors) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path))
      << client.last_error();

  EXPECT_TRUE(is_ok(rpc(client, R"({"id":1,"op":"ping"})")));

  const JsonValue garbage = rpc(client, "this is not json");
  EXPECT_FALSE(is_ok(garbage));
  EXPECT_EQ(error_code(garbage), "parse_error");

  const JsonValue unknown = rpc(client, R"({"id":2,"op":"frobnicate"})");
  EXPECT_EQ(error_code(unknown), "unknown_op");
  EXPECT_EQ(get_number(unknown, "id"), 2.0);

  const JsonValue invalid = rpc(client, R"({"id":3,"op":"load"})");
  EXPECT_EQ(error_code(invalid), "bad_request");

  const JsonValue no_session =
      rpc(client, R"({"id":4,"op":"partition","session":"ghost"})");
  EXPECT_EQ(error_code(no_session), "no_session");

  const JsonValue sessions = rpc(client, R"({"id":5,"op":"sessions"})");
  ASSERT_TRUE(is_ok(sessions));
  const JsonValue* list = sessions.find("sessions");
  ASSERT_NE(list, nullptr);
  EXPECT_TRUE(list->array.empty());
}

TEST(ServerTest, PartitionMatchesInProcessSessionExactly) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  const JsonValue loaded = rpc(
      client, R"({"id":1,"op":"load","session":"s","circuit":"Prim1"})");
  ASSERT_TRUE(is_ok(loaded));

  const JsonValue served =
      rpc(client, R"({"id":2,"op":"partition","session":"s"})");
  ASSERT_TRUE(is_ok(served));
  EXPECT_EQ(get_string(served, "served_from"), "compute");

  repart::RepartitionSession twin(make_benchmark("Prim1").hypergraph);
  const repart::RepartitionResult r = twin.repartition();

  EXPECT_EQ(get_number(served, "cut"), static_cast<double>(r.nets_cut));
  EXPECT_EQ(get_number(served, "ratio"), r.ratio);
  EXPECT_EQ(get_number(served, "lambda2"), r.lambda2);
  EXPECT_EQ(get_number(served, "lanczos_iterations"),
            static_cast<double>(r.lanczos_iterations));
  EXPECT_EQ(get_string(served, "assignment"), assignment_of(r.partition));
  EXPECT_FALSE(get_bool(served, "warm_started"));

  EXPECT_EQ(static_cast<std::int32_t>(get_number(loaded, "modules")),
            twin.hypergraph().num_modules());
  EXPECT_EQ(static_cast<std::int32_t>(get_number(loaded, "nets")),
            twin.hypergraph().num_nets());
}

TEST(ServerTest, EditThenRepartitionIsBitIdenticalToInProcessEco) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":1,"op":"load","session":"s","circuit":"bm1"})")));
  const JsonValue cold =
      rpc(client, R"({"id":2,"op":"partition","session":"s"})");
  ASSERT_TRUE(is_ok(cold));

  const JsonValue edited =
      rpc(client, std::string(R"({"id":3,"op":"edit","session":"s",)") +
                      R"("script":)" + json_quoted(kEcoScript) + "}");
  ASSERT_TRUE(is_ok(edited));
  EXPECT_EQ(get_number(edited, "batches"), 2.0);

  const JsonValue warm =
      rpc(client, R"({"id":4,"op":"repartition","session":"s"})");
  ASSERT_TRUE(is_ok(warm));
  EXPECT_TRUE(get_bool(warm, "warm_started"));

  // In-process twin: identical sequence, identical answers — bit for bit.
  repart::RepartitionSession twin(make_benchmark("bm1").hypergraph);
  repart::EditScriptApplier applier(twin.netlist());
  const repart::RepartitionResult twin_cold = twin.repartition();
  EXPECT_EQ(get_string(cold, "assignment"), assignment_of(twin_cold.partition));

  std::istringstream script_in(kEcoScript);
  const repart::EditScript script = repart::read_edit_script(script_in);
  for (const repart::EditBatch& batch : script.batches) applier.apply(batch);
  const repart::RepartitionResult twin_warm = twin.repartition();

  EXPECT_TRUE(twin_warm.warm_started);
  EXPECT_EQ(get_number(warm, "cut"), static_cast<double>(twin_warm.nets_cut));
  EXPECT_EQ(get_number(warm, "ratio"), twin_warm.ratio);
  EXPECT_EQ(get_string(warm, "assignment"),
            assignment_of(twin_warm.partition));
}

// A batch that only removes an isolated module still edits the netlist:
// the warm answer must cover exactly the modules that remain.
TEST(ServerTest, EditThatOnlyRemovesAnIsolatedModuleShrinksTheAnswer) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  const JsonValue loaded = rpc(
      client, R"({"id":1,"op":"load","session":"s","circuit":"bm1"})");
  ASSERT_TRUE(is_ok(loaded));
  const auto modules = static_cast<std::size_t>(get_number(loaded, "modules"));
  ASSERT_TRUE(is_ok(rpc(client, R"({"id":2,"op":"partition","session":"s"})")));

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":3,"op":"edit","session":"s","script":"add-module\n"})")));
  const JsonValue grown =
      rpc(client, R"({"id":4,"op":"repartition","session":"s"})");
  ASSERT_TRUE(is_ok(grown));
  EXPECT_EQ(get_string(grown, "assignment").size(), modules + 1);

  const std::string remove = R"({"id":5,"op":"edit","session":"s","script":)" +
                             json_quoted("remove-module " +
                                         std::to_string(modules) + "\n") +
                             "}";
  const JsonValue edited = rpc(client, remove);
  ASSERT_TRUE(is_ok(edited));
  EXPECT_EQ(static_cast<std::size_t>(get_number(edited, "modules")), modules);
  const JsonValue shrunk =
      rpc(client, R"({"id":6,"op":"repartition","session":"s"})");
  ASSERT_TRUE(is_ok(shrunk));
  EXPECT_EQ(get_string(shrunk, "assignment").size(), modules);

  // In-process twin: the same two batches, the same answer.
  repart::RepartitionSession twin(make_benchmark("bm1").hypergraph);
  (void)twin.repartition();
  (void)twin.netlist().add_module();
  (void)twin.repartition();
  twin.netlist().remove_module(static_cast<ModuleId>(modules));
  const repart::RepartitionResult want = twin.repartition();
  EXPECT_EQ(get_string(shrunk, "assignment"), assignment_of(want.partition));
  EXPECT_EQ(get_number(shrunk, "ratio"), want.ratio);
}

TEST(ServerTest, CacheHitServesIdenticalResultAndPrimesWarmPath) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":1,"op":"load","session":"a","circuit":"bm1"})")));
  const JsonValue computed =
      rpc(client, R"({"id":2,"op":"partition","session":"a"})");
  ASSERT_TRUE(is_ok(computed));
  EXPECT_EQ(get_string(computed, "served_from"), "compute");
  EXPECT_FALSE(get_bool(computed, "cached"));

  // Identical content in a different session: cache hit, identical bits.
  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":3,"op":"load","session":"b","circuit":"bm1"})")));
  const JsonValue hit =
      rpc(client, R"({"id":4,"op":"partition","session":"b"})");
  ASSERT_TRUE(is_ok(hit));
  EXPECT_EQ(get_string(hit, "served_from"), "cache");
  EXPECT_TRUE(get_bool(hit, "cached"));
  EXPECT_EQ(get_string(hit, "assignment"), get_string(computed, "assignment"));
  EXPECT_EQ(get_number(hit, "cut"), get_number(computed, "cut"));
  EXPECT_EQ(get_number(hit, "ratio"), get_number(computed, "ratio"));
  EXPECT_EQ(get_string(hit, "hash"), get_string(computed, "hash"));
  EXPECT_GE(fixture.server().stats().cache_hits, 1);

  // The hit must also prime session b's warm state: the same ECO sequence
  // now takes the identical warm path in both sessions.
  const std::string edit_a =
      std::string(R"({"id":5,"op":"edit","session":"a","script":)") +
      json_quoted(kEcoScript) + "}";
  const std::string edit_b =
      std::string(R"({"id":6,"op":"edit","session":"b","script":)") +
      json_quoted(kEcoScript) + "}";
  ASSERT_TRUE(is_ok(rpc(client, edit_a)));
  ASSERT_TRUE(is_ok(rpc(client, edit_b)));
  const JsonValue warm_a =
      rpc(client, R"({"id":7,"op":"repartition","session":"a"})");
  const JsonValue warm_b =
      rpc(client, R"({"id":8,"op":"repartition","session":"b"})");
  ASSERT_TRUE(is_ok(warm_a));
  ASSERT_TRUE(is_ok(warm_b));
  EXPECT_TRUE(get_bool(warm_a, "warm_started"));
  EXPECT_TRUE(get_bool(warm_b, "warm_started"));
  EXPECT_EQ(get_string(warm_a, "assignment"), get_string(warm_b, "assignment"));
  EXPECT_EQ(get_number(warm_a, "cut"), get_number(warm_b, "cut"));
  EXPECT_EQ(get_number(warm_a, "lanczos_iterations"),
            get_number(warm_b, "lanczos_iterations"));
}

TEST(ServerTest, CacheBypassRecomputesButAgreesWithCachedAnswer) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":1,"op":"load","session":"a","circuit":"Prim1"})")));
  const JsonValue first = rpc(
      client, R"({"id":2,"op":"partition","session":"a","use_cache":false})");
  ASSERT_TRUE(is_ok(first));
  EXPECT_EQ(get_string(first, "served_from"), "compute");

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":3,"op":"load","session":"b","circuit":"Prim1"})")));
  const JsonValue second = rpc(
      client, R"({"id":4,"op":"partition","session":"b","use_cache":false})");
  ASSERT_TRUE(is_ok(second));
  EXPECT_EQ(get_string(second, "served_from"), "compute");
  // Determinism makes bypassed recomputation bit-identical anyway.
  EXPECT_EQ(get_string(first, "assignment"), get_string(second, "assignment"));
  EXPECT_EQ(fixture.server().stats().cache_hits, 0);
}

// ServerOptions::repartition reaches every session: with a V-cycle
// threshold of 1, bm1 is partitioned through the multilevel path exactly as
// an in-process session with the same options partitions it.  A second
// session over the same content is answered from the cache, and the hit
// primes it to take the same warm V-cycle step as the session that
// computed the answer.
TEST(ServerTest, VcycleThresholdReachesSessionsCacheHitsAndWarmSteps) {
  ServerOptions options = test_options(unique_socket());
  options.repartition.vcycle_threshold = 1;
  ServerFixture fixture(options);
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":1,"op":"load","session":"a","circuit":"bm1"})")));
  const JsonValue cold =
      rpc(client, R"({"id":2,"op":"partition","session":"a"})");
  ASSERT_TRUE(is_ok(cold));
  EXPECT_EQ(get_string(cold, "served_from"), "compute");

  repart::RepartitionOptions twin_options;
  twin_options.vcycle_threshold = 1;
  repart::RepartitionSession twin(make_benchmark("bm1").hypergraph,
                                  twin_options);
  const repart::RepartitionResult twin_cold = twin.repartition();
  ASSERT_TRUE(twin_cold.used_vcycle);
  EXPECT_EQ(get_string(cold, "assignment"), assignment_of(twin_cold.partition));
  EXPECT_EQ(get_number(cold, "cut"), static_cast<double>(twin_cold.nets_cut));
  EXPECT_EQ(get_number(cold, "ratio"), twin_cold.ratio);
  EXPECT_EQ(get_number(cold, "lanczos_iterations"), 0.0);

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":3,"op":"load","session":"b","circuit":"bm1"})")));
  const JsonValue hit =
      rpc(client, R"({"id":4,"op":"partition","session":"b"})");
  ASSERT_TRUE(is_ok(hit));
  EXPECT_EQ(get_string(hit, "served_from"), "cache");
  EXPECT_EQ(get_string(hit, "assignment"), get_string(cold, "assignment"));

  for (const char* session : {"a", "b"})
    ASSERT_TRUE(is_ok(rpc(client, std::string(R"({"id":5,"op":"edit",)") +
                                      R"("session":")" + session +
                                      R"(","script":)" +
                                      json_quoted(kEcoScript) + "}")));
  const JsonValue warm_a =
      rpc(client, R"({"id":6,"op":"repartition","session":"a"})");
  const JsonValue warm_b =
      rpc(client, R"({"id":7,"op":"repartition","session":"b"})");
  ASSERT_TRUE(is_ok(warm_a));
  ASSERT_TRUE(is_ok(warm_b));
  EXPECT_TRUE(get_bool(warm_a, "warm_started"));
  EXPECT_TRUE(get_bool(warm_b, "warm_started"));
  EXPECT_EQ(get_string(warm_b, "assignment"), get_string(warm_a, "assignment"));
  EXPECT_EQ(get_number(warm_b, "cut"), get_number(warm_a, "cut"));
  EXPECT_EQ(get_number(warm_b, "ratio"), get_number(warm_a, "ratio"));

  repart::EditScriptApplier applier(twin.netlist());
  std::istringstream script_in(kEcoScript);
  for (const repart::EditBatch& batch :
       repart::read_edit_script(script_in).batches)
    applier.apply(batch);
  const repart::RepartitionResult twin_warm = twin.repartition();
  ASSERT_TRUE(twin_warm.used_vcycle && twin_warm.warm_started);
  EXPECT_EQ(get_string(warm_a, "assignment"),
            assignment_of(twin_warm.partition));
  EXPECT_EQ(get_number(warm_a, "ratio"), twin_warm.ratio);
}

// Every V-cycle field a netpartd flag sets keys the result cache.
TEST(ResultCache, ConfigHashSeparatesTheVcycleFlags) {
  const repart::RepartitionOptions base;
  repart::RepartitionOptions threshold = base;
  threshold.vcycle_threshold = 1;
  repart::RepartitionOptions coarsen_to = base;
  coarsen_to.vcycle.coarsen_to = 16;
  repart::RepartitionOptions vcycles = base;
  vcycles.vcycle.vcycles = 2;
  const std::vector<std::uint64_t> hashes = {
      repartition_config_hash(base), repartition_config_hash(threshold),
      repartition_config_hash(coarsen_to), repartition_config_hash(vcycles)};
  for (std::size_t i = 0; i < hashes.size(); ++i)
    for (std::size_t j = i + 1; j < hashes.size(); ++j)
      EXPECT_NE(hashes[i], hashes[j]) << i << " vs " << j;
}

TEST(ServerTest, RepeatPartitionOnSameSessionIsIdempotent) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":1,"op":"load","session":"s","circuit":"Prim1"})")));
  const JsonValue first =
      rpc(client, R"({"id":2,"op":"partition","session":"s"})");
  const JsonValue again =
      rpc(client, R"({"id":3,"op":"partition","session":"s"})");
  ASSERT_TRUE(is_ok(first));
  ASSERT_TRUE(is_ok(again));
  EXPECT_EQ(get_string(again, "served_from"), "session");
  EXPECT_EQ(get_string(first, "assignment"), get_string(again, "assignment"));
  EXPECT_EQ(get_number(first, "ratio"), get_number(again, "ratio"));
}

// A full hit class sheds with the structured envelope: the `class` and
// `retry_after_ms` hints clients back off on.
TEST(ServerTest, BackpressureRejectsWithStructuredErrorWhenQueueFull) {
  ServerOptions options = test_options(unique_socket());
  options.queue_capacity = 2;
  ServerFixture fixture(options);
  Client blocker;
  Client burst;
  ASSERT_TRUE(blocker.connect(options.socket_path));
  ASSERT_TRUE(burst.connect(options.socket_path));

  // Wedge the executor, give the I/O thread time to dequeue the sleep, then
  // burst: 2 fit the queue, the rest must be rejected immediately.
  ASSERT_TRUE(blocker.send_line(R"({"id":0,"op":"sleep","sleep_ms":400})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int kBurst = 8;
  for (int i = 1; i <= kBurst; ++i)
    ASSERT_TRUE(burst.send_line(R"({"id":)" + std::to_string(i) +
                                R"(,"op":"ping"})"));

  int overloaded = 0;
  int ok = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string line;
    ASSERT_TRUE(burst.read_line(line)) << burst.last_error();
    JsonValue response;
    std::string error;
    ASSERT_TRUE(parse_json(line, response, error)) << line;
    if (is_ok(response)) {
      ++ok;
    } else if (error_code(response) == "overloaded") {
      ++overloaded;
      EXPECT_EQ(get_string(response, "class"), "hit") << line;
      EXPECT_GE(get_number(response, "retry_after_ms"), 0.0) << line;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(overloaded, kBurst - 2);
  EXPECT_EQ(fixture.server().stats().rejected_overload, kBurst - 2);

  std::string sleep_response;
  EXPECT_TRUE(blocker.read_line(sleep_response));
}

TEST(ServerTest, QueueDeadlineExpiresWhileExecutorBusy) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  ASSERT_TRUE(client.send_line(R"({"id":0,"op":"sleep","sleep_ms":300})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(
      client.send_line(R"({"id":1,"op":"ping","timeout_ms":50})"));

  std::string line;
  ASSERT_TRUE(client.read_line(line));  // sleep completes first
  JsonValue sleep_response;
  std::string error;
  ASSERT_TRUE(parse_json(line, sleep_response, error));
  EXPECT_TRUE(is_ok(sleep_response));

  ASSERT_TRUE(client.read_line(line));
  JsonValue expired;
  ASSERT_TRUE(parse_json(line, expired, error));
  EXPECT_EQ(error_code(expired), "deadline_exceeded");
  EXPECT_EQ(fixture.server().stats().rejected_deadline, 1);
}

TEST(ServerTest, SigtermDrainsInFlightWorkBeforeExit) {
  std::string error;
  ASSERT_TRUE(Server::install_signal_handlers(error)) << error;

  ServerOptions options = test_options(unique_socket());
  Server server(options);
  ASSERT_TRUE(server.start(error)) << error;
  std::thread io([&server] { server.run(); });

  Client client;
  ASSERT_TRUE(client.connect(options.socket_path));
  // Queue slow work, then SIGTERM: the drain must still answer it.
  ASSERT_TRUE(client.send_line(R"({"id":1,"op":"sleep","sleep_ms":200})"));
  ASSERT_TRUE(client.send_line(R"({"id":2,"op":"ping"})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ::raise(SIGTERM);

  std::string line;
  ASSERT_TRUE(client.read_line(line)) << client.last_error();
  JsonValue first;
  ASSERT_TRUE(parse_json(line, first, error));
  EXPECT_TRUE(is_ok(first));
  ASSERT_TRUE(client.read_line(line)) << client.last_error();
  JsonValue second;
  ASSERT_TRUE(parse_json(line, second, error));
  EXPECT_TRUE(is_ok(second));
  EXPECT_EQ(get_number(second, "id"), 2.0);

  io.join();  // run() must return on its own after the drain
}

TEST(ServerTest, ShutdownOpDrainsAndStopsTheServer) {
  ServerOptions options = test_options(unique_socket());
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  std::thread io([&server] { server.run(); });

  Client client;
  ASSERT_TRUE(client.connect(options.socket_path));
  JsonValue response;
  ASSERT_TRUE(
      client.round_trip_json(R"({"id":1,"op":"shutdown"})", response));
  EXPECT_TRUE(is_ok(response));
  io.join();
}

TEST(ServerTest, IdleSessionsAreEvicted) {
  ServerOptions options = test_options(unique_socket());
  options.idle_timeout_ms = 100;
  ServerFixture fixture(options);
  Client client;
  ASSERT_TRUE(client.connect(options.socket_path));

  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":1,"op":"load","session":"s","circuit":"Prim1"})")));
  EXPECT_EQ(fixture.server().stats().sessions_live, 1);

  // The I/O loop sweeps on its 200 ms poll tick; wait past timeout + tick.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const JsonValue gone =
      rpc(client, R"({"id":2,"op":"partition","session":"s"})");
  EXPECT_EQ(error_code(gone), "no_session");
  EXPECT_GE(fixture.server().stats().sessions_evicted, 1);
  EXPECT_EQ(fixture.server().stats().sessions_live, 0);
}

TEST(ServerTest, OversizedFrameIsRefusedAndConnectionClosed) {
  ServerOptions options = test_options(unique_socket());
  options.max_frame_bytes = 1024;
  ServerFixture fixture(options);
  Client client;
  ASSERT_TRUE(client.connect(options.socket_path));

  // 4 KiB with no newline: can never resync, must be refused.
  ASSERT_TRUE(client.send_line(std::string(4096, 'x')));
  std::string line;
  ASSERT_TRUE(client.read_line(line)) << client.last_error();
  JsonValue response;
  std::string error;
  ASSERT_TRUE(parse_json(line, response, error));
  EXPECT_EQ(error_code(response), "frame_too_large");
  EXPECT_EQ(fixture.server().stats().rejected_oversized, 1);
  // The server hangs up afterwards.
  EXPECT_FALSE(client.read_line(line));
}

TEST(ServerTest, MetricsOpReportsServerCounters) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  ASSERT_TRUE(is_ok(rpc(client, R"({"id":1,"op":"ping"})")));
  rpc(client, "garbage");  // one parse error
  const JsonValue metrics = rpc(client, R"({"id":2,"op":"metrics"})");
  ASSERT_TRUE(is_ok(metrics));
  EXPECT_GE(get_number(metrics, "requests_total"), 2.0);
  EXPECT_GE(get_number(metrics, "parse_errors"), 1.0);
  EXPECT_EQ(get_number(metrics, "queue_capacity"), 64.0);
  EXPECT_GE(get_number(metrics, "connections_accepted"), 1.0);
}

TEST(ServerTest, LoadFromInlineHgrAndHashMatchesContent) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  // 4 nets over 6 modules, inline .hgr (1-based pins).
  const JsonValue loaded = rpc(
      client,
      R"({"id":1,"op":"load","session":"tiny","hgr":"4 6\n1 2\n2 3 4\n4 5\n5 6\n"})");
  ASSERT_TRUE(is_ok(loaded));
  EXPECT_EQ(get_number(loaded, "modules"), 6.0);
  EXPECT_EQ(get_number(loaded, "nets"), 4.0);
  const std::string hash = get_string(loaded, "hash");
  EXPECT_EQ(hash.rfind("fnv1a:", 0), 0u);

  // Same content, different session: identical hash.
  const JsonValue reload = rpc(
      client,
      R"({"id":2,"op":"load","session":"tiny2","hgr":"4 6\n1 2\n2 3 4\n4 5\n5 6\n"})");
  EXPECT_EQ(get_string(reload, "hash"), hash);

  const JsonValue bad = rpc(
      client, R"({"id":3,"op":"load","session":"bad","hgr":"not an hgr"})");
  EXPECT_EQ(error_code(bad), "parse_error");
}

TEST(ServerTest, LoadRejectsHeaderCountAboveInt32AsParseError) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));
  // An unchecked int32 cast would load a 1-module netlist holding net {0}.
  const JsonValue wrapped = rpc(
      client,
      R"({"id":1,"op":"load","session":"w","hgr":"1 4294967297\n4294967297\n"})");
  EXPECT_EQ(error_code(wrapped), "parse_error");
  // The same cast would make this count negative, a bad_request.
  const JsonValue negative = rpc(
      client,
      R"({"id":2,"op":"load","session":"n","hgr":"1 2147483648\n1 2\n"})");
  EXPECT_EQ(error_code(negative), "parse_error");
}

TEST(ServerTest, LoadByPathRefusesNonRegularFiles) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));
  // A device, FIFO or directory is refused before the lane reads or waits
  // on it, so /dev/null is not parsed as an empty .hgr.  A path that cannot
  // be opened is the client's error, not the server's.
  const std::pair<const char*, const char*> cases[] = {
      {"/dev/null", "cannot open /dev/null: not a regular file"},
      {"/", "cannot open /: not a regular file"},
      {"/nonexistent/path/file.hgr",
       "cannot open /nonexistent/path/file.hgr"}};
  for (const auto& [path, message] : cases) {
    const JsonValue refused =
        rpc(client, R"({"id":1,"op":"load","session":"d","path":")" +
                        std::string(path) + R"("})");
    ASSERT_FALSE(is_ok(refused)) << path;
    EXPECT_EQ(error_code(refused), "bad_request") << path;
    const JsonValue* error = refused.find("error");
    ASSERT_NE(error, nullptr) << path;
    EXPECT_EQ(get_string(*error, "message"), message);
  }
  // A readable file that does not parse is still a parse error.
  const std::string bad = ::testing::TempDir() + "/netpart_server_test_" +
                          std::to_string(::getpid()) + ".hgr";
  std::ofstream(bad) << "1 2\n1 3\n";
  const JsonValue unparsed = rpc(
      client, R"({"id":2,"op":"load","session":"d","path":")" + bad + R"("})");
  std::remove(bad.c_str());
  ASSERT_FALSE(is_ok(unparsed));
  EXPECT_EQ(error_code(unparsed), "parse_error");
  EXPECT_TRUE(is_ok(rpc(client, R"({"id":3,"op":"ping"})")));
}

TEST(ServerTest, StatsOpReportsRollingLatencyPerOp) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(is_ok(rpc(client, R"({"id":1,"op":"ping"})")));
  ASSERT_TRUE(is_ok(rpc(client, R"({"id":2,"op":"load","session":"s","circuit":"Prim1"})")));
  ASSERT_TRUE(is_ok(rpc(client, R"({"id":3,"op":"partition","session":"s"})")));

  const JsonValue stats = rpc(client, R"({"id":4,"op":"stats"})");
  ASSERT_TRUE(is_ok(stats));
  EXPECT_GE(get_number(stats, "uptime_ms"), 0.0);
  EXPECT_GT(get_number(stats, "qps"), 0.0);
  EXPECT_GE(get_number(stats, "requests_total"), 5.0);
  EXPECT_GE(get_number(stats, "rss_bytes"), 0.0);

  // The overall window has seen every executed request; its percentiles
  // are monotone and bounded by the observed max.
  const JsonValue* all = stats.find("latency_ms");
  ASSERT_NE(all, nullptr);
  EXPECT_GE(get_number(*all, "count"), 5.0);
  EXPECT_LE(get_number(*all, "p50"), get_number(*all, "p90"));
  EXPECT_LE(get_number(*all, "p90"), get_number(*all, "p99"));
  EXPECT_LE(get_number(*all, "p99"), get_number(*all, "max"));

  // Per-op windows keyed by wire op name.
  const JsonValue* per_op = stats.find("op_latency_ms");
  ASSERT_NE(per_op, nullptr);
  const JsonValue* ping = per_op->find("ping");
  ASSERT_NE(ping, nullptr);
  EXPECT_EQ(get_number(*ping, "count"), 3.0);
  const JsonValue* part = per_op->find("partition");
  ASSERT_NE(part, nullptr);
  EXPECT_EQ(get_number(*part, "count"), 1.0);
}

TEST(ServerTest, StatsPrometheusBodyExposesServerFamilies) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  ASSERT_TRUE(is_ok(rpc(client, R"({"id":1,"op":"ping"})")));
  const JsonValue stats =
      rpc(client, R"({"id":2,"op":"stats","format":"prometheus"})");
  ASSERT_TRUE(is_ok(stats));
  EXPECT_EQ(get_string(stats, "format"), "prometheus");
  EXPECT_EQ(get_string(stats, "content_type"), "text/plain; version=0.0.4");
  const std::string body = get_string(stats, "body");
  EXPECT_NE(body.find("# TYPE netpartd_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE netpartd_request_latency_ms summary\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE netpartd_op_latency_ms_ping summary\n"),
            std::string::npos);
  EXPECT_NE(body.find("netpartd_queue_depth "), std::string::npos);

  const JsonValue bad = rpc(client, R"({"id":3,"op":"stats","format":"xml"})");
  EXPECT_EQ(error_code(bad), "bad_request");
}

TEST(ServerTest, InvalidTraceFormatIsRejected) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));
  const JsonValue bad = rpc(
      client, R"({"id":1,"op":"ping","trace":true,"trace_format":"svg"})");
  EXPECT_EQ(error_code(bad), "bad_request");
}

TEST(ServerTest, AccessLogWritesOneNdjsonLinePerExecutedRequest) {
  const std::string log_path =
      "access-log-test-" + std::to_string(::getpid()) + ".ndjson";
  std::remove(log_path.c_str());
  ServerOptions options = test_options(unique_socket());
  options.access_log_path = log_path;
  {
    ServerFixture fixture(options);
    Client client;
    ASSERT_TRUE(client.connect(fixture.server().options().socket_path));
    ASSERT_TRUE(is_ok(rpc(client, R"({"id":1,"op":"ping"})")));
    ASSERT_TRUE(is_ok(
        rpc(client, R"({"id":2,"op":"load","session":"s","circuit":"Prim1"})")));
    EXPECT_EQ(error_code(rpc(client, R"({"id":3,"op":"partition","session":"ghost"})")),
              "no_session");
    fixture.stop();
  }

  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::vector<JsonValue> lines;
  std::string line;
  while (std::getline(in, line)) {
    JsonValue entry;
    std::string error;
    ASSERT_TRUE(parse_json(line, entry, error)) << error << ": " << line;
    lines.push_back(std::move(entry));
  }
  ASSERT_EQ(lines.size(), 3u);
  // The exact key order of every line (the parser keeps object order).
  const std::vector<std::string> kKeyOrder = {
      "ts_ms", "op", "id", "session", "ok", "outcome", "class",
      "bytes_in", "bytes_out", "queue_ms", "exec_ms", "cache_hit",
      "deadline_slack_ms", "slow", "trace_id", "span_id", "lane",
      "parse_us", "admission_us", "queue_us", "execute_us",
      "serialize_us", "write_us", "total_us"};
  for (const JsonValue& entry : lines) {
    std::vector<std::string> keys;
    for (const auto& member : entry.object) keys.push_back(member.first);
    EXPECT_EQ(keys, kKeyOrder);
    EXPECT_GT(get_number(entry, "ts_ms"), 0.0);
    EXPECT_FALSE(get_string(entry, "op").empty());
    ASSERT_NE(entry.find("ok"), nullptr);
    EXPECT_GE(get_number(entry, "bytes_in"), 0.0);
    EXPECT_GT(get_number(entry, "bytes_out"), 0.0);
    EXPECT_GE(get_number(entry, "queue_ms"), 0.0);
    EXPECT_GE(get_number(entry, "exec_ms"), 0.0);
    ASSERT_NE(entry.find("cache_hit"), nullptr);
    ASSERT_NE(entry.find("slow"), nullptr);
    EXPECT_FALSE(get_bool(entry, "slow"));  // slow_ms unset: never flagged
    // Tracing fields are appended after every pre-existing key, so old
    // consumers keep working; untraced requests carry trace_id null.
    for (const char* key : {"trace_id", "span_id", "lane", "parse_us",
                            "admission_us", "queue_us", "execute_us",
                            "serialize_us", "write_us", "total_us"})
      ASSERT_NE(entry.find(key), nullptr) << key;
    EXPECT_GE(get_number(entry, "total_us"), 0.0);
  }
  EXPECT_EQ(get_string(lines[0], "op"), "ping");
  EXPECT_TRUE(get_bool(lines[0], "ok"));
  EXPECT_EQ(get_string(lines[2], "op"), "partition");
  EXPECT_FALSE(get_bool(lines[2], "ok"));
  EXPECT_EQ(get_string(lines[2], "outcome"), "error");
  std::remove(log_path.c_str());
}

TEST(ServerTest, ChromeTraceRoundTripsThroughTheWire) {
  ServerOptions options = test_options(unique_socket());
  options.enable_obs = true;
  {
    ServerFixture fixture(options);
    Client client;
    ASSERT_TRUE(client.connect(fixture.server().options().socket_path));
    ASSERT_TRUE(is_ok(
        rpc(client, R"({"id":1,"op":"load","session":"s","circuit":"Prim1"})")));
    const JsonValue traced = rpc(
        client,
        R"({"id":2,"op":"partition","session":"s","trace":true,"trace_format":"chrome"})");
    ASSERT_TRUE(is_ok(traced));
    const JsonValue* trace = traced.find("trace");
    ASSERT_NE(trace, nullptr);
    const JsonValue* events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->array.size(), 2u);  // metadata plus at least one span
    bool saw_complete = false;
    for (const JsonValue& ev : events->array) {
      const std::string ph = get_string(ev, "ph");
      EXPECT_TRUE(ph == "X" || ph == "M" || ph == "C") << ph;
      if (ph == "X") saw_complete = true;
    }
    EXPECT_TRUE(saw_complete);

    // Default trace_format: the obs snapshot JSON, not a trace-event array.
    const JsonValue obs_traced = rpc(
        client, R"({"id":3,"op":"partition","session":"s","trace":true})");
    ASSERT_TRUE(is_ok(obs_traced));
    const JsonValue* snap = obs_traced.find("trace");
    ASSERT_NE(snap, nullptr);
    EXPECT_NE(snap->find("spans"), nullptr);
  }
  // The executor enabled the process-wide registry; restore it so later
  // tests in this binary see the default-disabled state.
  obs::MetricsRegistry::instance().set_rolling_spans(false);
  obs::MetricsRegistry::instance().set_enabled(false);
  obs::MetricsRegistry::instance().reset();
}

TEST(ServerTest, ProfileOpControlsTheSamplingProfiler) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  // Validation happens at parse time, before dispatch.
  EXPECT_EQ(error_code(rpc(client, R"({"id":1,"op":"profile"})")),
            "bad_request");
  EXPECT_EQ(
      error_code(rpc(client, R"({"id":2,"op":"profile","action":"resume"})")),
      "bad_request");

  const JsonValue started =
      rpc(client, R"({"id":3,"op":"profile","action":"start"})");
  ASSERT_TRUE(is_ok(started));
  EXPECT_EQ(get_string(started, "op"), "profile");
  EXPECT_TRUE(get_bool(started, "running"));
  // Double start is an error, and must not clobber the running session.
  EXPECT_EQ(
      error_code(rpc(client, R"({"id":4,"op":"profile","action":"start"})")),
      "bad_request");

  // Run real work under the profiler, plus one deterministic manual sample
  // (the server and this test share the process-wide profiler) so the dump
  // below has a guaranteed floor even on a machine where the partition
  // finishes between timer ticks.
  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":5,"op":"load","session":"p","circuit":"bm1"})")));
  ASSERT_TRUE(is_ok(rpc(
      client,
      R"({"id":6,"op":"partition","session":"p","use_cache":false})")));
  obs::Profiler::instance().sample_now();

  const JsonValue dump =
      rpc(client, R"({"id":7,"op":"profile","action":"dump"})");
  ASSERT_TRUE(is_ok(dump));
  const JsonValue* folded = dump.find("folded");
  ASSERT_NE(folded, nullptr);
  ASSERT_TRUE(folded->is_string());
  EXPECT_GE(get_number(dump, "samples"), 1.0);
  EXPECT_GE(get_number(dump, "attribution"), 0.0);
  EXPECT_TRUE(get_bool(dump, "running"));
  // Every folded line is `path count` — the wire carries the same text
  // --profile-out writes.
  std::istringstream folded_in(folded->string);
  std::string folded_line;
  while (std::getline(folded_in, folded_line)) {
    const std::size_t space = folded_line.find(' ');
    ASSERT_NE(space, std::string::npos) << folded_line;
    EXPECT_GT(std::stoll(folded_line.substr(space + 1)), 0) << folded_line;
  }

  const JsonValue stopped =
      rpc(client, R"({"id":8,"op":"profile","action":"stop"})");
  ASSERT_TRUE(is_ok(stopped));
  EXPECT_FALSE(get_bool(stopped, "running"));
  // Samples survive stop() so dump-after-stop still works.  The timer may
  // tick once more between the running dump and the stop, so that dump is
  // a floor; once stopped, real work (a fresh session, so the solver runs)
  // adds no samples.
  const JsonValue after =
      rpc(client, R"({"id":9,"op":"profile","action":"dump"})");
  ASSERT_TRUE(is_ok(after));
  EXPECT_FALSE(get_bool(after, "running"));
  EXPECT_GE(get_number(after, "samples"), get_number(dump, "samples"));
  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":10,"op":"load","session":"q","circuit":"bm1"})")));
  ASSERT_TRUE(is_ok(rpc(
      client,
      R"({"id":11,"op":"partition","session":"q","use_cache":false})")));
  const JsonValue later =
      rpc(client, R"({"id":12,"op":"profile","action":"dump"})");
  ASSERT_TRUE(is_ok(later));
  EXPECT_EQ(get_number(later, "samples"), get_number(after, "samples"));

  // Clear the process-wide sample table for later tests in this binary.
  obs::Profiler::instance().start(0);
  obs::Profiler::instance().stop();
}

TEST(ServerTest, PartitionWithEventsSplicesTheConvergenceStream) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));

  // Fresh session, cache bypassed: the events request below is a real
  // compute (a session memo or cache hit would run no solver and leave the
  // spliced array legitimately empty).
  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":1,"op":"load","session":"e1","circuit":"bm1"})")));
  const JsonValue traced = rpc(
      client,
      R"({"id":2,"op":"partition","session":"e1","use_cache":false,"events":true})");
  ASSERT_TRUE(is_ok(traced));
  ASSERT_EQ(get_string(traced, "served_from"), "compute");
  const JsonValue* events = traced.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(get_number(traced, "events_recorded"), 0.0);
  EXPECT_GE(get_number(traced, "events_dropped"), 0.0);
  // The solver ran under an armed ring: the Lanczos iteration series must
  // be present, in emission order.
  ASSERT_FALSE(events->array.empty());
  EXPECT_EQ(get_number(traced, "events_recorded"),
            static_cast<double>(events->array.size()));
  bool saw_lanczos = false;
  double last_seq = -1.0;
  for (const JsonValue& ev : events->array) {
    EXPECT_GT(get_number(ev, "seq"), last_seq);
    last_seq = get_number(ev, "seq");
    if (get_string(ev, "kind") == "lanczos.iteration") {
      saw_lanczos = true;
      EXPECT_GE(get_number(ev, "j"), 0.0);
    }
  }
  EXPECT_TRUE(saw_lanczos);

  // The splice must not perturb the result itself: an events-free compute
  // of the same circuit yields identical bits (and no "events" key — the
  // stream is strictly opt-in).
  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":3,"op":"load","session":"e2","circuit":"bm1"})")));
  const JsonValue plain = rpc(
      client, R"({"id":4,"op":"partition","session":"e2","use_cache":false})");
  ASSERT_TRUE(is_ok(plain));
  ASSERT_EQ(get_string(plain, "served_from"), "compute");
  EXPECT_EQ(plain.find("events"), nullptr);
  EXPECT_EQ(get_string(traced, "assignment"), get_string(plain, "assignment"));
  EXPECT_EQ(get_number(traced, "cut"), get_number(plain, "cut"));
  EXPECT_EQ(get_number(traced, "ratio"), get_number(plain, "ratio"));
}

/// One session's end-to-end conversation: cold partition, ECO edit, warm
/// repartition, idempotent replay.  Cache is bypassed so the responses are
/// a pure function of the session's own request sequence — the property
/// the lane-pinning determinism contract promises.
std::vector<std::string> run_session_workload(const std::string& socket,
                                              const std::string& session,
                                              const std::string& circuit) {
  Client client;
  EXPECT_TRUE(client.connect(socket)) << client.last_error();
  const std::vector<std::string> requests = {
      R"({"id":1,"op":"load","session":")" + session + R"(","circuit":")" +
          circuit + R"("})",
      R"({"id":2,"op":"partition","session":")" + session +
          R"(","use_cache":false})",
      R"({"id":3,"op":"edit","session":")" + session + R"(","script":)" +
          json_quoted(kEcoScript) + "}",
      R"({"id":4,"op":"repartition","session":")" + session +
          R"(","use_cache":false})",
      R"({"id":5,"op":"partition","session":")" + session +
          R"(","use_cache":false})",
  };
  std::vector<std::string> responses;
  for (const std::string& request : requests) {
    std::string line;
    EXPECT_TRUE(client.round_trip(request, line)) << client.last_error();
    responses.push_back(line);
  }
  return responses;
}

TEST(ServerTest, ExecutorPoolIsBitIdenticalToSingleExecutor) {
  const std::vector<std::pair<std::string, std::string>> sessions = {
      {"alpha", "bm1"},
      {"bravo", "Prim1"},
      {"charlie", "Test02"},
      {"delta", "Test03"}};

  // Reference: the classic single-executor server, sessions run one after
  // another.
  std::map<std::string, std::vector<std::string>> reference;
  {
    const ServerOptions options = test_options(unique_socket());
    ServerFixture fixture(options);
    for (const auto& [name, circuit] : sessions)
      reference[name] =
          run_session_workload(options.socket_path, name, circuit);
  }

  // Pools of 2 and 4 lanes, all sessions driven concurrently from separate
  // connections: every response line must match the reference byte for
  // byte.
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{4}}) {
    ServerOptions options = test_options(unique_socket());
    options.executor_lanes = lanes;
    ServerFixture fixture(options);
    std::vector<std::vector<std::string>> results(sessions.size());
    std::vector<std::thread> threads;
    threads.reserve(sessions.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      threads.emplace_back([&, i] {
        results[i] = run_session_workload(options.socket_path,
                                          sessions[i].first,
                                          sessions[i].second);
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < sessions.size(); ++i)
      EXPECT_EQ(results[i], reference[sessions[i].first])
          << "lanes=" << lanes << " session=" << sessions[i].first;
  }
}

/// The `sessions` op executes on lane 0 while other lanes mutate their
/// sessions (edits rewrite the hypergraph, partitions flip primed/pending),
/// so the listing must be built entirely from the atomic mirrors, never
/// the lane-owned state.  Under TSan this is the race detector for that
/// contract; in all builds it checks the listing stays well-formed under
/// concurrent mutation and exact once quiescent.
TEST(ServerTest, SessionsOpIsRaceFreeAgainstConcurrentLaneMutation) {
  ServerOptions options = test_options(unique_socket());
  options.executor_lanes = 4;
  ServerFixture fixture(options);

  std::atomic<bool> done{false};
  std::thread lister([&] {
    Client client;
    ASSERT_TRUE(client.connect(options.socket_path)) << client.last_error();
    while (!done.load(std::memory_order_relaxed)) {
      const JsonValue v = rpc(client, R"({"id":1,"op":"sessions"})");
      ASSERT_TRUE(is_ok(v));
      const JsonValue* list = v.find("sessions");
      ASSERT_NE(list, nullptr);
      for (const JsonValue& s : list->array) {
        EXPECT_FALSE(get_string(s, "name").empty());
        EXPECT_GE(get_number(s, "modules"), 1.0);
        EXPECT_GE(get_number(s, "nets"), 1.0);
      }
    }
  });

  const std::vector<std::pair<std::string, std::string>> sessions = {
      {"alpha", "bm1"}, {"bravo", "Prim1"}, {"charlie", "Test02"}};
  std::vector<std::thread> workers;
  workers.reserve(sessions.size());
  for (const auto& [name, circuit] : sessions)
    workers.emplace_back([&, name = name, circuit = circuit] {
      for (int round = 0; round < 3; ++round)
        run_session_workload(options.socket_path, name, circuit);
    });
  for (std::thread& t : workers) t.join();
  done.store(true, std::memory_order_relaxed);
  lister.join();

  // Quiescent: the workload ends primed with all edits folded in, and the
  // mirrored counts must agree with a fresh load+edit of the same circuit.
  Client client;
  ASSERT_TRUE(client.connect(options.socket_path)) << client.last_error();
  const JsonValue v = rpc(client, R"({"id":2,"op":"sessions"})");
  const JsonValue* list = v.find("sessions");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), sessions.size());
  for (const JsonValue& s : list->array) {
    EXPECT_TRUE(get_bool(s, "primed")) << get_string(s, "name");
    EXPECT_FALSE(get_bool(s, "pending_edits")) << get_string(s, "name");
    const auto it = std::find_if(
        sessions.begin(), sessions.end(),
        [&](const auto& p) { return p.first == get_string(s, "name"); });
    ASSERT_NE(it, sessions.end()) << get_string(s, "name");
    const Hypergraph reference = make_benchmark(it->second).hypergraph;
    // kEcoScript: one module added, one net removed, two nets added.
    EXPECT_EQ(get_number(s, "modules"), reference.num_modules() + 1)
        << it->first;
    EXPECT_EQ(get_number(s, "nets"), reference.num_nets() + 1) << it->first;
  }
}

TEST(ServerTest, AdmissionShedsColdBeforeWarmAtSaturation) {
  ServerOptions options = test_options(unique_socket());
  options.cold_slots = 1;
  options.warm_slots = 4;
  ServerFixture fixture(options);
  Client client;
  ASSERT_TRUE(client.connect(options.socket_path)) << client.last_error();

  // A primed-and-edited session: its next repartition classifies warm.
  ASSERT_TRUE(is_ok(rpc(
      client, R"({"id":1,"op":"load","session":"w","circuit":"bm1"})")));
  ASSERT_TRUE(is_ok(rpc(client, R"({"id":2,"op":"partition","session":"w"})")));
  ASSERT_TRUE(is_ok(rpc(client, R"({"id":3,"op":"edit","session":"w","script":)" +
                                    json_quoted(kEcoScript) + "}")));

  // Wedge the lane, then burst: three cold loads against one cold slot,
  // plus the warm repartition.  The warm request must ride through while
  // the cold surplus is shed with a structured hint.
  ASSERT_TRUE(client.send_line(R"({"id":10,"op":"sleep","sleep_ms":400})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(client.send_line(
      R"({"id":11,"op":"load","session":"c1","circuit":"bm1"})"));
  ASSERT_TRUE(client.send_line(
      R"({"id":12,"op":"load","session":"c2","circuit":"bm1"})"));
  ASSERT_TRUE(client.send_line(
      R"({"id":13,"op":"load","session":"c3","circuit":"bm1"})"));
  ASSERT_TRUE(client.send_line(R"({"id":14,"op":"repartition","session":"w"})"));

  std::map<int, JsonValue> by_id;
  for (int i = 0; i < 5; ++i) {
    std::string line;
    ASSERT_TRUE(client.read_line(line)) << client.last_error();
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parse_json(line, v, error)) << line;
    by_id[static_cast<int>(get_number(v, "id"))] = v;
  }

  EXPECT_TRUE(is_ok(by_id[10]));
  EXPECT_TRUE(is_ok(by_id[11]));  // fits the single cold slot
  for (const int shed_id : {12, 13}) {
    EXPECT_EQ(error_code(by_id[shed_id]), "overloaded") << shed_id;
    EXPECT_EQ(get_string(by_id[shed_id], "class"), "cold") << shed_id;
    EXPECT_GE(get_number(by_id[shed_id], "retry_after_ms"), 10.0) << shed_id;
  }
  EXPECT_TRUE(is_ok(by_id[14]));
  EXPECT_TRUE(get_bool(by_id[14], "warm_started"));

  const ServerStatsSnapshot st = fixture.server().stats();
  EXPECT_EQ(st.shed_cold, 2);
  EXPECT_EQ(st.shed_warm, 0);
  EXPECT_EQ(st.shed_hit, 0);
  EXPECT_EQ(st.rejected_overload, 2);
}

TEST(ServerTest, TcpTransportServesByteIdenticalResponses) {
  ServerOptions options = test_options(unique_socket());
  options.tcp_listen = "127.0.0.1:0";  // ephemeral port; read back below
  ServerFixture fixture(options);
  const int port = fixture.server().tcp_port();
  ASSERT_GT(port, 0);

  Client tcp;
  ASSERT_TRUE(tcp.connect_tcp("127.0.0.1:" + std::to_string(port)))
      << tcp.last_error();
  EXPECT_TRUE(is_ok(rpc(tcp, R"({"id":1,"op":"ping"})")));

  // The same cold workload over TCP and (after the session is gone) over
  // the unix socket: one protocol, one compute path, identical bytes.
  const std::string load_req =
      R"({"id":2,"op":"load","session":"x","circuit":"bm1"})";
  const std::string part_req =
      R"({"id":3,"op":"partition","session":"x","use_cache":false})";
  std::string tcp_load;
  std::string tcp_part;
  ASSERT_TRUE(tcp.round_trip(load_req, tcp_load)) << tcp.last_error();
  ASSERT_TRUE(tcp.round_trip(part_req, tcp_part)) << tcp.last_error();
  EXPECT_TRUE(is_ok(rpc(tcp, R"({"id":4,"op":"unload","session":"x"})")));

  Client unix_client;
  ASSERT_TRUE(unix_client.connect(options.socket_path))
      << unix_client.last_error();
  std::string unix_load;
  std::string unix_part;
  ASSERT_TRUE(unix_client.round_trip(load_req, unix_load))
      << unix_client.last_error();
  ASSERT_TRUE(unix_client.round_trip(part_req, unix_part))
      << unix_client.last_error();
  EXPECT_EQ(tcp_load, unix_load);
  EXPECT_EQ(tcp_part, unix_part);
}

TEST(ServerTest, TcpConnectToClosedPortFailsCleanly) {
  Client client;
  // Port 1 is privileged and unbound in the test environment.
  EXPECT_FALSE(client.connect_tcp("127.0.0.1:1"));
  EXPECT_FALSE(client.last_error().empty());
}

TEST(ServerTest, StatsExposeLanesAdmissionAndClassLatencies) {
  ServerOptions options = test_options(unique_socket());
  options.executor_lanes = 2;
  ServerFixture fixture(options);
  Client client;
  ASSERT_TRUE(client.connect(options.socket_path)) << client.last_error();
  ASSERT_TRUE(is_ok(rpc(client, R"({"id":1,"op":"ping"})")));

  const JsonValue stats = rpc(client, R"({"id":2,"op":"stats"})");
  ASSERT_TRUE(is_ok(stats));
  EXPECT_EQ(get_number(stats, "executor_lanes"), 2.0);
  const JsonValue* lanes = stats.find("lanes");
  ASSERT_NE(lanes, nullptr);
  ASSERT_EQ(lanes->array.size(), 2u);
  EXPECT_EQ(get_number(lanes->array[0], "queue_depth"), 0.0);
  const JsonValue* admission = stats.find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_TRUE(get_bool(*admission, "enabled"));
  const JsonValue* cold = admission->find("cold");
  ASSERT_NE(cold, nullptr);
  EXPECT_GT(get_number(*cold, "cap"), 0.0);
  const JsonValue* class_lat = stats.find("class_latency_ms");
  ASSERT_NE(class_lat, nullptr);
  EXPECT_NE(class_lat->find("hit"), nullptr);
  EXPECT_NE(class_lat->find("warm"), nullptr);
  EXPECT_NE(class_lat->find("cold"), nullptr);

  const JsonValue prom =
      rpc(client, R"({"id":3,"op":"stats","format":"prometheus"})");
  ASSERT_TRUE(is_ok(prom));
  const std::string body = get_string(prom, "body");
  EXPECT_NE(body.find("netpartd_lane_queue_depth_0"), std::string::npos);
  EXPECT_NE(body.find("netpartd_lane_queue_depth_1"), std::string::npos);
  EXPECT_NE(body.find("netpartd_shed_cold_total"), std::string::npos);
  EXPECT_NE(body.find("netpartd_shed_warm_total"), std::string::npos);
  EXPECT_NE(body.find("netpartd_write_failures_total"), std::string::npos);
  EXPECT_NE(body.find("netpartd_class_latency_ms_hit"), std::string::npos);
  EXPECT_NE(body.find("netpartd_executor_lanes 2"), std::string::npos);

  // PR 10: per-class queue-wait and per-lane stage windows, in both the
  // JSON report and the Prometheus body.
  const JsonValue* class_queue = stats.find("class_queue_wait_ms");
  ASSERT_NE(class_queue, nullptr);
  EXPECT_NE(class_queue->find("hit"), nullptr);
  EXPECT_NE(class_queue->find("cold"), nullptr);
  const JsonValue* lane_queue = stats.find("lane_queue_wait_ms");
  ASSERT_NE(lane_queue, nullptr);
  EXPECT_EQ(lane_queue->array.size(), 2u);
  const JsonValue* lane_exec = stats.find("lane_execute_ms");
  ASSERT_NE(lane_exec, nullptr);
  EXPECT_EQ(lane_exec->array.size(), 2u);
  EXPECT_NE(body.find("netpartd_class_queue_wait_ms_hit"), std::string::npos);
  EXPECT_NE(body.find("netpartd_lane_queue_wait_ms_0"), std::string::npos);
  EXPECT_NE(body.find("netpartd_lane_execute_ms_1"), std::string::npos);
}

/// Tentpole end-to-end check: a trace-context-carrying request must echo
/// its trace_id (canonicalized) and the caller's span as parent_span_id,
/// mint a fresh server span, decompose its latency into stages that sum to
/// the measured wall time, and land the same identity in the access log,
/// the flight recorder, and the Prometheus exemplar.
TEST(ServerTest, TraceContextPropagatesAndStagesSumToWall) {
  const std::string log_path =
      "trace-access-log-" + std::to_string(::getpid()) + ".ndjson";
  std::remove(log_path.c_str());
  ServerOptions options = test_options(unique_socket());
  options.access_log_path = log_path;
  const std::string tid = "00112233445566778899aabbccddeeff";
  std::string server_span;
  // Stage durations of the traced request as the envelope and the flight
  // recorder report them; the access log must agree on every shared stage.
  std::map<std::string, double> envelope_stages;
  std::map<std::string, double> flight_stages;
  {
    ServerFixture fixture(options);
    Client client;
    ASSERT_TRUE(client.connect(options.socket_path)) << client.last_error();
    ASSERT_TRUE(is_ok(rpc(
        client, R"({"id":1,"op":"load","session":"s","circuit":"Prim1"})")));
    // Uppercase hex on the wire: the echo must be canonical lowercase.
    const JsonValue traced = rpc(
        client,
        R"({"id":2,"op":"partition","session":"s","trace_id":"00112233445566778899AABBCCDDEEFF","span_id":"0123456789abcdef"})");
    ASSERT_TRUE(is_ok(traced));
    EXPECT_EQ(get_string(traced, "trace_id"), tid);
    EXPECT_EQ(get_string(traced, "parent_span_id"), "0123456789abcdef");
    server_span = get_string(traced, "span_id");
    ASSERT_EQ(server_span.size(), 16u);
    EXPECT_NE(server_span, "0123456789abcdef") << "server must mint its own";
    const JsonValue* stages = traced.find("stages_us");
    ASSERT_NE(stages, nullptr);
    // The envelope carries durations through `serialize`; `write` cannot be
    // known before the line is on the wire and lands in the access log.
    ASSERT_EQ(stages->object.size(), 5u);
    for (const char* name :
         {"parse", "admission", "queue", "execute", "serialize"}) {
      EXPECT_GE(get_number(*stages, name), 0.0) << name;
      envelope_stages[name] = get_number(*stages, name);
    }

    // The exemplar on the class-latency p99 sample names this trace.
    const JsonValue prom =
        rpc(client, R"({"id":3,"op":"stats","format":"prometheus"})");
    ASSERT_TRUE(is_ok(prom));
    EXPECT_NE(get_string(prom, "body").find("# {trace_id=\"" + tid + "\"}"),
              std::string::npos);

    // The flight recorder holds the same request under the same identity.
    const JsonValue debug = rpc(client, R"({"id":4,"op":"debug","action":"flightrec"})");
    ASSERT_TRUE(is_ok(debug));
    EXPECT_TRUE(get_bool(debug, "enabled"));
    const JsonValue* records = debug.find("records");
    ASSERT_NE(records, nullptr);
    bool found = false;
    for (const JsonValue& r : records->array) {
      if (get_string(r, "trace_id") != tid) continue;
      if (get_string(r, "outcome") != "ok") continue;
      found = true;
      EXPECT_EQ(get_string(r, "op"), "partition");
      EXPECT_EQ(get_string(r, "span_id"), server_span);
      EXPECT_GE(get_number(r, "lane"), 0.0);
      const JsonValue* rec_stages = r.find("stages_us");
      ASSERT_NE(rec_stages, nullptr);
      for (const auto& [name, value] : rec_stages->object)
        flight_stages[name] = value.number;
    }
    EXPECT_TRUE(found) << "traced request missing from the flight recorder";
    fixture.stop();
  }

  // Access log: same trace identity, and the full six-stage decomposition
  // must sum to total_us within flooring slack (one microsecond per stage).
  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  bool checked = false;
  while (std::getline(in, line)) {
    JsonValue entry;
    std::string error;
    ASSERT_TRUE(parse_json(line, entry, error)) << error << ": " << line;
    if (get_string(entry, "op") != "partition") continue;
    checked = true;
    EXPECT_EQ(get_string(entry, "trace_id"), tid);
    EXPECT_EQ(get_string(entry, "span_id"), server_span);
    EXPECT_GE(get_number(entry, "lane"), 0.0);
    double sum = 0.0;
    for (const char* name : {"parse_us", "admission_us", "queue_us",
                             "execute_us", "serialize_us", "write_us"}) {
      const double d = get_number(entry, name);
      EXPECT_GE(d, 0.0) << name;
      sum += d;
    }
    const double total = get_number(entry, "total_us");
    EXPECT_GE(total, sum);
    EXPECT_LE(total - sum, 6.0)
        << "stage durations must decompose the wall latency";
    // One record behind all three outputs: equal values for every stage
    // they share (the envelope stops at serialize).
    ASSERT_EQ(flight_stages.size(), 6u);
    for (const auto& [name, value] : flight_stages)
      EXPECT_EQ(get_number(entry, name + "_us"), value) << name;
    ASSERT_EQ(envelope_stages.size(), 5u);
    for (const auto& [name, value] : envelope_stages)
      EXPECT_EQ(get_number(entry, name + "_us"), value) << name;
  }
  EXPECT_TRUE(checked);
  std::remove(log_path.c_str());
}

/// Trace context is observability, not input: carrying one must not change
/// a single payload byte of the partition result, at any lane count.  The
/// traced response must equal the untraced response with the trace envelope
/// removed, and the untraced response must be lane-count-invariant.
/// `served_from` is provenance, not payload — the second request to a
/// session is legitimately served from its warm state — so it is
/// normalised out before comparison.
TEST(ServerTest, TraceContextDoesNotPerturbPartitionResults) {
  const auto strip_provenance = [](std::string body) {
    const std::size_t key = body.find("\"served_from\":\"");
    if (key == std::string::npos) return body;
    const std::size_t end = body.find('"', key + 15);
    body.erase(key, end - key + 2);  // key, value, trailing comma
    return body;
  };
  std::string reference;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    ServerOptions options = test_options(unique_socket());
    options.executor_lanes = lanes;
    ServerFixture fixture(options);
    Client client;
    ASSERT_TRUE(client.connect(options.socket_path)) << client.last_error();
    ASSERT_TRUE(is_ok(rpc(
        client, R"({"id":7,"op":"load","session":"s","circuit":"Prim1"})")));
    std::string untraced;
    ASSERT_TRUE(client.round_trip(
        R"({"id":8,"op":"partition","session":"s","use_cache":false})",
        untraced));
    std::string traced;
    ASSERT_TRUE(client.round_trip(
        R"({"id":8,"op":"partition","session":"s","use_cache":false,"trace_id":"feedfacefeedfacefeedfacefeedface","span_id":"0123456789abcdef"})",
        traced));
    const std::size_t envelope = traced.find(",\"trace_id\":");
    ASSERT_NE(envelope, std::string::npos);
    EXPECT_EQ(strip_provenance(traced.substr(0, envelope) + "}"),
              strip_provenance(untraced))
        << "lanes=" << lanes;
    if (reference.empty())
      reference = strip_provenance(untraced);
    else
      EXPECT_EQ(strip_provenance(untraced), reference) << "lanes=" << lanes;
  }
}

TEST(ServerTest, ErrorResponsesEchoTraceId) {
  ServerFixture fixture(test_options(unique_socket()));
  Client client;
  ASSERT_TRUE(client.connect(fixture.server().options().socket_path));
  const std::string tid = "feedfacefeedfacefeedfacefeedface";

  // Executed error (dispatch fails): full envelope with stages.
  const JsonValue no_session = rpc(
      client,
      R"({"id":1,"op":"partition","session":"ghost","trace_id":"feedfacefeedfacefeedfacefeedface"})");
  EXPECT_EQ(error_code(no_session), "no_session");
  EXPECT_EQ(get_string(no_session, "trace_id"), tid);
  EXPECT_NE(no_session.find("stages_us"), nullptr);

  // Pre-execution reject (unknown op): trace_id still echoed.
  const JsonValue unknown = rpc(
      client,
      R"({"id":2,"op":"frobnicate","trace_id":"feedfacefeedfacefeedfacefeedface"})");
  EXPECT_EQ(error_code(unknown), "unknown_op");
  EXPECT_EQ(get_string(unknown, "trace_id"), tid);

  // Malformed context is a schema violation, not silently dropped.
  const JsonValue bad_id =
      rpc(client, R"({"id":3,"op":"ping","trace_id":"not-hex"})");
  EXPECT_EQ(error_code(bad_id), "bad_request");
  const JsonValue bad_span = rpc(
      client,
      R"({"id":4,"op":"ping","trace_id":"feedfacefeedfacefeedfacefeedface","span_id":"xyz"})");
  EXPECT_EQ(error_code(bad_span), "bad_request");

  // The all-zero trace_id is the "absent" sentinel: parses, not echoed.
  const JsonValue zeros = rpc(
      client,
      R"({"id":5,"op":"ping","trace_id":"00000000000000000000000000000000"})");
  ASSERT_TRUE(is_ok(zeros));
  EXPECT_EQ(zeros.find("trace_id"), nullptr);
}

TEST(ServerTest, DebugOpDrainsFlightRecorderAndValidatesAction) {
  ServerOptions options = test_options(unique_socket());
  options.flight_recorder_capacity = 16;
  ServerFixture fixture(options);
  Client client;
  ASSERT_TRUE(client.connect(options.socket_path)) << client.last_error();

  EXPECT_EQ(error_code(rpc(client, R"({"id":1,"op":"debug"})")),
            "bad_request");
  EXPECT_EQ(error_code(
                rpc(client, R"({"id":2,"op":"debug","action":"coredump"})")),
            "bad_request");

  ASSERT_TRUE(is_ok(rpc(client, R"({"id":3,"op":"ping"})")));
  const JsonValue drained =
      rpc(client, R"({"id":4,"op":"debug","action":"flightrec"})");
  ASSERT_TRUE(is_ok(drained));
  EXPECT_TRUE(get_bool(drained, "enabled"));
  EXPECT_EQ(get_number(drained, "capacity"), 16.0);
  EXPECT_GE(get_number(drained, "recorded"), 1.0);
  const JsonValue* records = drained.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_FALSE(records->array.empty());
  bool saw_ping = false;
  for (const JsonValue& r : records->array) {
    EXPECT_FALSE(get_string(r, "outcome").empty());
    if (get_string(r, "op") == "ping") saw_ping = true;
  }
  EXPECT_TRUE(saw_ping);
  const JsonValue* notes = drained.find("notes");
  ASSERT_NE(notes, nullptr);
  bool saw_start = false;
  for (const JsonValue& n : notes->array)
    if (get_string(n, "kind") == "server.start") saw_start = true;
  EXPECT_TRUE(saw_start) << "server start note missing";
}

/// The obs layer cannot depend on the server target, so the flight
/// recorder duplicates the three admission-class labels.  This guard pins
/// them to runtime::class_name — if a class is ever added or renamed, this
/// is the test that fails.
TEST(ServerTest, FlightRecorderClassLabelsMatchAdmission) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  recorder.configure(0);
  recorder.configure(4);
  for (std::uint8_t cls = 0; cls < runtime::kNumClasses; ++cls) {
    recorder.configure(0);
    recorder.configure(4);
    obs::FlightRecord rec;
    rec.cls = cls;
    rec.set_op("ping");
    recorder.record(rec);
    const std::string expected =
        std::string("\"class\":\"") +
        runtime::class_name(static_cast<runtime::RequestClass>(cls)) + "\"";
    EXPECT_NE(recorder.records_to_json().find(expected), std::string::npos)
        << "class " << static_cast<int>(cls);
  }
  recorder.configure(0);
}

/// SIGQUIT is the non-fatal member of the crash-handler set: it dumps the
/// post-mortem NDJSON and lets the process continue.  This is the
/// in-process smoke for the async-signal-safe dump path; check.sh
/// postmortem_smoke covers the fatal SIGSEGV path on a real daemon.
TEST(ServerTest, SigquitDumpsPostmortemWithInFlightTraceIds) {
  const std::string pm_path =
      "postmortem-test-" + std::to_string(::getpid()) + ".ndjson";
  std::remove(pm_path.c_str());
  std::string error;
  ASSERT_TRUE(obs::FlightRecorder::install_crash_handlers(pm_path, &error))
      << error;
  const std::string tid = "0badc0de0badc0de0badc0de0badc0de";
  {
    ServerFixture fixture(test_options(unique_socket()));
    Client client;
    ASSERT_TRUE(client.connect(fixture.server().options().socket_path));
    ASSERT_TRUE(is_ok(rpc(
        client,
        R"({"id":1,"op":"ping","trace_id":"0badc0de0badc0de0badc0de0badc0de"})")));
    ASSERT_EQ(::raise(SIGQUIT), 0);
    fixture.stop();
  }
  std::ifstream in(pm_path);
  ASSERT_TRUE(in.is_open());
  std::vector<JsonValue> lines;
  std::string line;
  while (std::getline(in, line)) {
    JsonValue entry;
    std::string parse_err;
    ASSERT_TRUE(parse_json(line, entry, parse_err)) << parse_err << ": "
                                                    << line;
    lines.push_back(std::move(entry));
  }
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(get_string(lines[0], "type"), "postmortem");
  EXPECT_EQ(get_number(lines[0], "signal"), static_cast<double>(SIGQUIT));
  bool found = false;
  for (const JsonValue& entry : lines)
    if (get_string(entry, "type") == "request" &&
        get_string(entry, "trace_id") == tid)
      found = true;
  EXPECT_TRUE(found) << "traced request missing from the SIGQUIT dump";
  std::remove(pm_path.c_str());
}

}  // namespace
}  // namespace netpart::server