// perfbench entry point:
//   perfbench --workload scan|funnel|ingest_mix --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
// Prints one run-record JSON line, then the result line
//   {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exits 1 when any operation failed or any ranking was wrong.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.h"
#include "common/logging.h"

namespace {

bool ParseFlags(int argc, char** argv, perfbench::Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      flags->seconds = std::atof(value);
    } else if (key == "--trace") {
      flags->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      flags->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !flags->workload.empty() && flags->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::cerr << "usage: perfbench --workload scan|funnel|ingest_mix "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
    return 64;
  }
  fcm::common::SetLogLevel(fcm::common::LogLevel::kWarn);
  perfbench::Report report;
  perfbench::RecordMachine(flags, &report);
  const perfbench::CpuTicks ticks0 = perfbench::ReadCpuTicks();
  if (flags.workload == "scan") {
    perfbench::RunScan(flags, &report);
  } else if (flags.workload == "funnel") {
    perfbench::RunFunnel(flags, &report);
  } else if (flags.workload == "ingest_mix") {
    perfbench::RunIngestMix(flags, &report);
  } else {
    std::cerr << "perfbench: unknown workload '" << flags.workload << "'\n";
    return 64;
  }
  const perfbench::CpuTicks ticks1 = perfbench::ReadCpuTicks();
  report.Record("cpu_steal_pct",
                100.0 * (ticks1.steal - ticks0.steal) /
                    std::max(1.0, ticks1.total - ticks0.total));
  const uint64_t attempted = std::max<uint64_t>(1, report.attempted());
  report.Record("error_rate", static_cast<double>(report.failed()) /
                                  static_cast<double>(attempted));
  std::cout << report.RecordLine() << "\n" << report.ResultLine() << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
