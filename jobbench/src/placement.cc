#include "placement.h"

#include <dirent.h>
#include <sched.h>

#include <cstdlib>

namespace jobbench {

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
  if (cpus_.empty() || !PinAll(cpus_[0])) return;
  ok_ = true;
  thread_ = std::thread([this] { Loop(); });
}

CpuRotation::~CpuRotation() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool CpuRotation::PinAll(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return false;
  bool any = false;
  while (const dirent* entry = readdir(tasks)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    // A thread that exited since the listing is simply gone.
    if (tid > 0 && sched_setaffinity(tid, sizeof(one), &one) == 0) any = true;
  }
  closedir(tasks);
  return any;
}

void CpuRotation::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t k = 1;; ++k) {
    if (cv_.wait_for(lock, kPeriod, [this] { return stop_; })) return;
    // New threads inherit the mask of the thread that starts them, so
    // the process stays on one CPU between moves.
    PinAll(cpus_[k % cpus_.size()]);
  }
}

}  // namespace jobbench
