// Benchmark binary: runs one workload and prints its result as one
// JSON line. perfbench/run.py builds this, runs it, checks the metric
// names against BENCHMARK.json and prints the final result line.
//
//   perfbench --workload mpc_online|paper_table|fleet_serve --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Exit status: 0 when the workload ran (its checks decide `correct`), 2 on
// a usage error, 1 on an unexpected exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "linalg/kernels/kernels.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      const auto seed = protemp::util::parse_uint64(value);
      if (!seed) return usage("--seed must be an unsigned integer");
      options.seed = *seed;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every flag takes a value");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.work_dir.empty()) return usage("--work-dir is required");

  Result (*run)(const RunOptions&) = nullptr;
  if (workload == "mpc_online") run = run_mpc_online;
  if (workload == "paper_table") run = run_paper_table;
  if (workload == "fleet_serve") run = run_fleet_serve;
  if (run == nullptr) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  try {
    std::filesystem::create_directories(options.work_dir);
    Result result = run(options);
    result.info("workload", workload);
    result.info("seed", std::to_string(options.seed));
    result.info("kernel_backend",
                protemp::linalg::kernels::to_string(
                    protemp::linalg::kernels::active_backend()));
    result.info("nproc", std::to_string(std::thread::hardware_concurrency()));
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
}
