#ifndef JOBBENCH_REPORT_H_
#define JOBBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace jobbench {

/// What one invocation was asked to do (parsed from the command line).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Tiny inputs, one setup, one timed job: checks the metric surface only.
  bool smoke = false;
  /// Directory the span file of a traced run is written to.
  std::string trace_dir = ".bench_build/traces";
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (0 for an empty vector). Takes a copy: callers keep order.
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Mixes a run seed with a stream tag, so every generator, party rng and
/// setup trial of a run draws from its own reproducible stream.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

/// Process user+system CPU seconds (getrusage, all threads).
double ProcessCpuSeconds();
/// Peak resident set of the process, in MB (ru_maxrss).
double PeakRssMb();

/// Host-wide CPU time counters from /proc/stat (all zero where absent).
struct HostCpuTicks {
  double steal = 0;  // time the hypervisor ran something else
  double total = 0;
};
HostCpuTicks ReadHostCpuTicks();

/// The result of one invocation: metrics by name with their units and
/// sample counts, the correctness verdict, and a host record. The last
/// line of standard output is ResultLine(); InfoLine() goes just before it.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  /// Free-form record entry (host, sizes, sample counts), kept out of the
  /// result line. `json_value` must already be valid JSON.
  void Info(const std::string& key, const std::string& json_value);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string ResultLine() const;
  std::string InfoLine() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, std::string> info_;
};

/// JSON string literal for `s` (quotes and backslashes escaped).
std::string JsonString(const std::string& s);
/// Full-precision JSON number.
std::string JsonNumber(double v);

/// Host facts every result carries, so numbers from different machines can
/// be compared as ratios: nproc, PPDBSCAN_THREADS, the dispatched limb
/// kernel and whether the AVX-512 IFMA exponentiation engine is available.
std::string HostRecordJson();

}  // namespace jobbench

#endif  // JOBBENCH_REPORT_H_
