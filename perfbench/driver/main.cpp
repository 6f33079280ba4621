/// perfbench_driver: runs one benchmark workload and writes its raw
/// measurements as one JSON document.  run.py builds this binary, calls it
/// and turns the raw samples into the reported metrics.
///
/// Usage: perfbench_driver <serve_mix|cold_suite|eco_vcycle> --seed <n>
///          --seconds <s> --trace <0|1> --out <file> [--workdir <dir>]
///          [--netpartd <path>] [--setup-reps <n>]

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::cerr << "usage: perfbench_driver <serve_mix|cold_suite|eco_vcycle> "
               "--seed <n> --seconds <s> --trace <0|1> --out <file> "
               "[--workdir <dir>] [--netpartd <path>] [--setup-reps <n>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace")
      args.trace = value == "1";
    else if (flag == "--out")
      args.out = value;
    else if (flag == "--workdir")
      args.workdir = value;
    else if (flag == "--netpartd")
      args.netpartd = value;
    else if (flag == "--setup-reps")
      args.setup_reps = std::atoi(value.c_str());
    else
      return usage();
  }
  if (args.out.empty() || args.seconds <= 0.0 || args.setup_reps < 1)
    return usage();

  JsonWriter w;
  w.begin_object()
      .field("workload", args.workload)
      .field("seed", static_cast<std::int64_t>(args.seed))
      .field("seconds", args.seconds)
      .field("trace", args.trace)
      .field("setup_reps", args.setup_reps)
      .field("nproc",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .field("lanes", netpart::parallel::ThreadPool::default_lanes())
      .field("build_type", PERFBENCH_BUILD_TYPE);
  int rc = 0;
  try {
    if (args.workload == "serve_mix")
      rc = run_serve_mix(args, w);
    else if (args.workload == "cold_suite")
      rc = run_cold_suite(args, w);
    else if (args.workload == "eco_vcycle")
      rc = run_eco_vcycle(args, w);
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << args.workload << ": " << e.what()
              << '\n';
    return 1;
  }
  w.end_object();
  if (!write_file(args.out, w.str())) {
    std::cerr << "perfbench_driver: cannot write " << args.out << '\n';
    return 1;
  }
  return rc;
}
