// vbr_bench: runs one benchmark workload and prints its result line.
//
//   vbr_bench --workload repeat_m2|cold_catalog_m1|wire_churn
//             --seed N --seconds S --trace 0|1 [--data-seed D]
//
// The last line on stdout is one JSON object with the keys correct,
// attempted, failed and metrics; a human-readable report goes to stderr.
// The exit code is 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

#ifndef VBRBENCH_BUILD_TYPE
#define VBRBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vbr_bench --workload repeat_m2|cold_catalog_m1|"
               "wire_churn --seed N --seconds S --trace 0|1 "
               "[--data-seed D]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vbrbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--data-seed") {
      options.data_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  std::fprintf(stderr,
               "[vbrbench] host: nproc=%u build=%s compiler=\"%s\"\n",
               std::thread::hardware_concurrency(), VBRBENCH_BUILD_TYPE,
               __VERSION__);
  vbrbench::Outcome outcome;
  if (options.workload == "repeat_m2") {
    outcome = vbrbench::RunRepeatM2(options);
  } else if (options.workload == "cold_catalog_m1") {
    outcome = vbrbench::RunColdCatalogM1(options);
  } else if (options.workload == "wire_churn") {
    outcome = vbrbench::RunWireChurn(options);
  } else {
    return Usage();
  }
  if (outcome.attempted == 0) outcome.Fail("no request was attempted");
  vbrbench::PrintResult(options, outcome);
  return outcome.correct ? 0 : 1;
}
