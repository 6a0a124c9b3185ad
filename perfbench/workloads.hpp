#pragma once
// The three benchmark workloads. Each runs the program on inputs generated
// from opts.seed, checks its outputs, and fills `result`: every end-to-end
// metric in untraced runs, the per-layer metrics in traced runs.

#include "common.hpp"

namespace perfbench {

void run_serve_tiles(const Options& opts, Result& result);
void run_batch_large_window(const Options& opts, Result& result);
void run_hw_sim(const Options& opts, Result& result);

}  // namespace perfbench
