// Result line, run record, latency summaries and process probes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "bench.h"
#include "common/simd.h"

namespace perfbench {
namespace {

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

Percentiles Summarize(std::vector<double> values) {
  Percentiles p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  p.p50 = values[(n - 1) / 2];
  // Nearest-rank p99, pulled down until ten samples lie beyond it.
  size_t tail = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  tail = tail == 0 ? 0 : tail - 1;
  tail = std::min(tail, n > 11 ? n - 11 : size_t{0});
  p.tail = values[tail];
  p.tail_pct = 100.0 * static_cast<double>(tail + 1) / static_cast<double>(n);
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  // The aggregate line: "cpu user nice system idle iowait irq softirq
  // steal ...".
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

int EngineThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.emplace_back(name, "{\"value\": " + JsonNumber(value) +
                                  ", \"unit\": " + JsonString(unit) + "}");
}

void Report::Record(const std::string& key, double value) {
  record_.emplace_back(key, std::isfinite(value) ? JsonNumber(value) : "null");
}

void Report::Record(const std::string& key, const std::string& value) {
  record_.emplace_back(key, JsonString(value));
}

void Report::RecordPercentiles(const std::string& prefix,
                               const Percentiles& p) {
  Record(prefix + ".samples", static_cast<double>(p.samples));
  Record(prefix + ".p50_ms", p.p50);
  Record(prefix + ".tail_ms", p.tail);
  Record(prefix + ".tail_pct", p.tail_pct);
}

void Report::Fail(const std::string& why) {
  if (failed_ < 5) std::cerr << "perfbench: failure: " << why << "\n";
  ++failed_;
}

std::string Report::RecordLine() const {
  std::string out = "{\"run_record\": {";
  for (size_t i = 0; i < record_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(record_[i].first) + ": " +
           record_[i].second;
  }
  return out + "}}";
}

std::string Report::ResultLine() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<uint64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics_[i].first) + ": " +
           metrics_[i].second;
  }
  return out + "}}";
}

bool InTracedWindow(double offset_s) {
  constexpr double kTraceWindowS = 0.5;
  return static_cast<int64_t>(offset_s / kTraceWindowS) % 2 == 1;
}

void RecordMachine(const Flags& flags, Report* report) {
  report->Record("workload", flags.workload);
  report->Record("seed", static_cast<double>(flags.seed));
  report->Record("seconds", flags.seconds);
  report->Record("trace", flags.trace ? 1.0 : 0.0);
  report->Record("nproc",
                 static_cast<double>(std::thread::hardware_concurrency()));
  report->Record("engine_threads", static_cast<double>(EngineThreads()));
  report->Record("cpu_model", CpuModel());
  report->Record("simd_target",
                 fcm::simd::TargetName(fcm::simd::ActiveTarget()));
}

}  // namespace perfbench
