// The benchmark's workloads. Each generates its inputs from the seed, sets
// up several times (setup_s is the median), measures for the requested
// seconds with tracing off, checks the program's outputs, and reports the
// end-to-end metrics. A traced run repeats the measurement with spans on
// and reports the per-layer metrics plus the tracing overhead instead.
#pragma once

#include "report.hpp"

namespace perfbench {

Result run_mpc_online(const RunOptions& options);
Result run_paper_table(const RunOptions& options);
Result run_fleet_serve(const RunOptions& options);

}  // namespace perfbench
