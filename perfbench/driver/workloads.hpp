#pragma once

#include "common.hpp"

/// The three workloads.  Each appends its raw measurements (samples, not
/// summaries — run.py computes every statistic) to the open JSON object in
/// `w` and returns a process exit code.

namespace perfbench {

int run_serve_mix(const Args& args, JsonWriter& w);
int run_cold_suite(const Args& args, JsonWriter& w);
int run_eco_vcycle(const Args& args, JsonWriter& w);

}  // namespace perfbench
