#ifndef JOBBENCH_PLACEMENT_H_
#define JOBBENCH_PLACEMENT_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace jobbench {

/// Runs every thread of the process on one CPU at a time, moving them all
/// to the next CPU the process may use every kPeriod.
///
/// For workloads whose parties hand frames to each other every millisecond
/// or so. Spread over CPUs, each hand-off wakes an idle virtual CPU, and
/// that wake-up latency follows the load of the whole host, not the
/// program. On one CPU a hand-off is a context switch, so a job's wall time
/// is the work of all its parties together. Pinned to a fixed CPU, though,
/// that time would follow the one core under it (its hyperthread sibling
/// may be busy with another guest); moving on every kPeriod gives a run
/// each of the host's cores in turn, for equal shares of its time.
class CpuRotation {
 public:
  /// Long against the cost of a move: it wakes an idle virtual CPU and
  /// leaves the threads' caches behind. Every 20 ms, the moves made vt2's
  /// jobs 5% slower and its run-to-run spread twice as wide as here.
  static constexpr std::chrono::milliseconds kPeriod{200};

  /// Pins the process to its first CPU and starts the rotating thread.
  /// Check ok(): false if the affinity mask cannot be read or set.
  CpuRotation();
  ~CpuRotation();

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  bool ok() const { return ok_; }
  /// The CPUs taken in turn.
  const std::vector<int>& cpus() const { return cpus_; }

 private:
  /// Moves every thread of the process to `cpu`. False if none could be.
  static bool PinAll(int cpu);
  void Loop();

  std::vector<int> cpus_;
  bool ok_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace jobbench

#endif  // JOBBENCH_PLACEMENT_H_
