// End-to-end and per-layer metric definitions shared by every workload.

#include <algorithm>

#include "eval/cost_model.h"
#include "workloads.h"

namespace jobbench {
namespace {

using Field = double JobRecord::*;

/// `field` of every traced (or every untraced) job.
std::vector<double> Collect(const std::vector<JobRecord>& jobs, bool traced,
                            Field field) {
  std::vector<double> out;
  for (const JobRecord& job : jobs) {
    if (job.traced == traced) out.push_back(job.*field);
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank quantile of an ascending vector.
double Quantile(const std::vector<double>& sorted, double q) {
  const double last = static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(q * last + 0.5)];
}

}  // namespace

void AddPartyZero(const ppdbscan::RunOutcome& outcome, JobRecord& rec) {
  const ppdbscan::ChannelStats& stats = outcome.stats;
  rec.rounds = static_cast<double>(stats.rounds);
  rec.wan_s = ppdbscan::ProjectedSeconds(stats, ppdbscan::MetroWanLink());
  rec.program_run_s = outcome.timings.total_seconds;
  rec.negotiate_s = outcome.timings.negotiation_seconds;
  rec.plan_cmp = static_cast<double>(outcome.plan.encrypted_comparisons);
  rec.plan_saved_frac = outcome.plan.SavedFraction();
  rec.frames = static_cast<double>(stats.frames_sent + stats.frames_received);
  rec.bytes = static_cast<double>(stats.total_bytes());
  rec.deadline_trips = static_cast<double>(stats.deadline_trips);
  rec.aborts_seen = static_cast<double>(stats.aborts_seen);
}

bool SameResult(const ppdbscan::PartyClusteringResult& got,
                const ppdbscan::DbscanResult& want) {
  return got.labels == want.labels && got.is_core == want.is_core;
}

void CountJobs(const std::vector<JobRecord>& jobs, Report& report) {
  report.attempted = jobs.size();
  report.failed = static_cast<uint64_t>(std::count_if(
      jobs.begin(), jobs.end(), [](const JobRecord& j) { return !j.ok; }));
  report.correct = report.attempted > 0 && report.failed == 0;
}

void AddEndToEnd(const std::vector<JobRecord>& jobs, double loop_wall_s,
                 double loop_cpu_s, const SetupRecord& setup, Report& report) {
  const auto col = [&](Field field) { return Collect(jobs, false, field); };
  std::vector<double> walls = col(&JobRecord::wall_s);
  const double n = static_cast<double>(walls.size());
  const double ok = static_cast<double>(std::count_if(
      jobs.begin(), jobs.end(), [](const JobRecord& j) { return j.ok; }));
  const uint64_t samples = walls.size();

  report.Add("job_p50_s", Median(walls), "s", samples);
  report.Add("jobs_per_s", Ratio(ok, loop_wall_s), "1/s", samples);
  report.Add("setup_s", Median(setup.setup_s), "s", setup.setup_s.size());
  report.Add("cpu_s_per_job", Ratio(loop_cpu_s, n), "s", samples);
  report.Add("job_mb", Mean(col(&JobRecord::mb)), "MB", samples);
  report.Add("job_rounds", Mean(col(&JobRecord::rounds)), "count", samples);
  report.Add("wan_comm_s", Mean(col(&JobRecord::wan_s)), "s", samples);
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("ok_frac", Ratio(ok, n), "ratio", samples);

  if (walls.empty()) return;
  std::sort(walls.begin(), walls.end());
  report.Info("job_wall_quartiles_s",
              "[" + JsonNumber(Quantile(walls, 0.25)) + ", " +
                  JsonNumber(Median(walls)) + ", " +
                  JsonNumber(Quantile(walls, 0.75)) + "]");
  // A tail percentile only with at least ten samples beyond it.
  if (walls.size() >= 100) {
    report.Info("job_p90_s", "{\"value\": " + JsonNumber(Quantile(walls, 0.9)) +
                                 ", \"unit\": \"s\", \"samples\": " +
                                 std::to_string(walls.size()) + "}");
  }
}

void AddLayers(const std::vector<JobRecord>& jobs, const SetupRecord& setup,
               double plain_s, Report& report) {
  const auto col = [&](Field field) { return Collect(jobs, true, field); };
  const uint64_t samples = static_cast<uint64_t>(std::count_if(
      jobs.begin(), jobs.end(), [](const JobRecord& j) { return j.traced; }));
  const auto median = [&](const char* name, const char* unit, Field field) {
    report.Add(name, Median(col(field)), unit, samples);
  };
  const auto mean = [&](const char* name, const char* unit, Field field) {
    report.Add(name, Mean(col(field)), unit, samples);
  };
  const auto total = [&](const char* name, Field field) {
    const std::vector<double> v = col(field);
    report.Add(name, Mean(v) * static_cast<double>(v.size()), "count",
               samples);
  };
  // Per traced job: Run minus recv wait; submit minus the Run inside it;
  // recv wait over Run. Party 0's layer self times inside its Run span
  // (core = the span minus the Send/Recv time under it, net = that time)
  // add up to the span, so self_sum checks the span against the program's
  // own Run timer: the benchmark's outside-in view covers the whole run.
  std::vector<double> compute, control, recv_frac, self_sum;
  for (const JobRecord& j : jobs) {
    if (!j.traced) continue;
    compute.push_back(j.run_s - j.recv_wait_s);
    control.push_back(j.submit_s > 0 ? j.submit_s - j.program_run_s : 0);
    recv_frac.push_back(Ratio(j.recv_wait_s, j.run_s));
    self_sum.push_back(Ratio(j.run_s, j.program_run_s));
  }

  median("core.run_s", "s", &JobRecord::run_s);
  median("core.negotiate_s", "s", &JobRecord::negotiate_s);
  report.Add("core.compute_s", Median(compute), "s", samples);
  mean("core.plan_cmp", "count", &JobRecord::plan_cmp);
  mean("core.plan_saved_frac", "ratio", &JobRecord::plan_saved_frac);
  report.Add("core.cmp_per_round",
             Ratio(Mean(col(&JobRecord::plan_cmp)),
                   Mean(col(&JobRecord::rounds))),
             "ratio", samples);
  median("core.serve_submit_s", "s", &JobRecord::submit_s);
  report.Add("core.serve_control_s", Median(control), "s", samples);
  total("core.serve_retries", &JobRecord::retries);
  report.Add("core.serve_start_s", Median(setup.serve_start_s), "s",
             setup.serve_start_s.size());

  const double frames = Mean(col(&JobRecord::frames));
  report.Add("net.frames", frames, "count", samples);
  report.Add("net.bytes_per_frame", Ratio(Mean(col(&JobRecord::bytes)), frames),
             "B", samples);
  median("net.send_s", "s", &JobRecord::send_s);
  median("net.recv_wait_s", "s", &JobRecord::recv_wait_s);
  report.Add("net.recv_wait_frac", Median(recv_frac), "ratio", samples);
  report.Add("net.mesh_s", Median(setup.mesh_s), "s", setup.mesh_s.size());
  total("net.deadline_trips", &JobRecord::deadline_trips);
  total("net.aborts_seen", &JobRecord::aborts_seen);

  report.Add("smc.establish_s", Median(setup.establish_s), "s",
             setup.establish_s.size());
  mean("smc.pool_produced", "count", &JobRecord::pool_produced);
  mean("smc.pool_available_at_start", "count", &JobRecord::pool_available);

  const double untraced_p50 = Median(Collect(jobs, false, &JobRecord::wall_s));
  report.Add("dbscan.plain_s", plain_s, "s");
  report.Add("core.privacy_overhead_x", Ratio(untraced_p50, plain_s), "x",
             samples);
  report.Add("trace.overhead_frac",
             Ratio(Median(col(&JobRecord::wall_s)), untraced_p50) - 1, "ratio",
             samples);
  report.Add("trace.self_sum_frac", Median(self_sum), "ratio", samples);
}

}  // namespace jobbench
