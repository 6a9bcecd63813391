// jobbench: the job-level benchmark. One invocation runs one workload for
// a fixed time and prints, as the last line of standard output, one JSON
// object with the correctness verdict and every metric by name and unit:
// end-to-end metrics from untraced jobs with --trace 0, per-layer metrics
// from a traced run with --trace 1.
//
//   jobbench --workload hz2-exact|vt2-exact|serve3-prune --seed N
//            --seconds S --trace 0|1 [--smoke] [--trace-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "placement.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: jobbench --workload hz2-exact|vt2-exact|serve3-prune "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  jobbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      return Usage();
    }
  }
  const bool two_party =
      config.workload == "hz2-exact" || config.workload == "vt2-exact";
  if (!two_party && config.workload != "serve3-prune") return Usage();
  if (config.smoke) config.seconds = 0;

  // hz2 runs its two parties and a two-worker pool unpinned, within the
  // host's cores: its work is large batched exponentiations. vt2 and
  // serve3 hand frames between parties every millisecond or so; they run
  // on one CPU at a time with a serial pool (see CpuRotation). Set before
  // any library call creates the global pool.
  const bool one_cpu = config.workload != "hz2-exact";
  setenv("PPDBSCAN_THREADS", one_cpu ? "1" : "2", 1);
  std::optional<jobbench::CpuRotation> rotation;
  if (one_cpu) {
    rotation.emplace();
    if (!rotation->ok()) {
      std::fprintf(stderr, "jobbench: cannot set the CPU affinity\n");
      return 1;
    }
  }

  jobbench::Report report;
  jobbench::Tracer tracer;
  jobbench::Tracer* trace = config.trace ? &tracer : nullptr;
  report.Info("workload", jobbench::JsonString(config.workload));
  report.Info("seed", std::to_string(config.seed));
  report.Info("host", jobbench::HostRecordJson());
  report.Info("cpu_rotation",
              std::to_string(rotation ? rotation->cpus().size() : 0));
  const jobbench::HostCpuTicks before = jobbench::ReadHostCpuTicks();
  if (two_party) {
    jobbench::RunTwoParty(config, report, trace);
  } else {
    jobbench::RunServe3(config, report, trace);
  }
  // Share of host CPU time the hypervisor gave to other guests during the
  // run: a noisy neighbour shows here, not in the program.
  const jobbench::HostCpuTicks after = jobbench::ReadHostCpuTicks();
  const double total = after.total - before.total;
  const double steal = after.steal - before.steal;
  report.Info("host_steal_frac",
              jobbench::JsonNumber(total > 0 ? steal / total : 0));

  if (trace != nullptr) {
    std::error_code ec;
    std::filesystem::create_directories(config.trace_dir, ec);
    const std::string path = config.trace_dir + "/" + config.workload +
                              "-seed" + std::to_string(config.seed) + ".json";
    if (!tracer.Write(path, report.InfoLine())) {
      std::fprintf(stderr, "jobbench: cannot write %s\n", path.c_str());
    }
  }
  std::printf("%s\n%s\n", report.InfoLine().c_str(),
              report.ResultLine().c_str());
  return 0;
}
