#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "bigint/ifma.h"
#include "bigint/kernels.h"

namespace jobbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  // SplitMix64 finalizer over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostCpuTicks ReadHostCpuTicks() {
  HostCpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    double value = 0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_[key] = json_value;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Report::ResultLine() const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

std::string Report::InfoLine() const {
  std::string out = "{\"jobbench_info\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(key) + ": " + value;
  }
  out += std::string(first ? "" : ", ") + "\"samples\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": " +
           std::to_string(metrics_[i].samples);
  }
  return out + "}}}";
}

std::string HostRecordJson() {
  const char* threads = std::getenv("PPDBSCAN_THREADS");
  return std::string("{\"nproc\": ") +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"ppdbscan_threads\": " + JsonString(threads ? threads : "") +
         ", \"limb_kernel\": " +
         JsonString(ppdbscan::ActiveLimbKernels().name) +
         ", \"ifma_engine\": " +
         (ppdbscan::ifma::Available() ? "true" : "false") + "}";
}

}  // namespace jobbench
