// hz2-exact and vt2-exact: two in-process PartyRuntimes over a
// MemoryChannel pair, jobs back-to-back on one Connect.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <thread>

#include "core/job.h"
#include "data/fixed_point.h"
#include "data/partitioners.h"
#include "eval/metrics.h"
#include "eval/plan_eval.h"
#include "inputs.h"
#include "net/memory_channel.h"
#include "workloads.h"

namespace jobbench {
namespace {

using namespace ppdbscan;

struct Spec {
  PartitionScheme scheme = PartitionScheme::kHorizontal;
  size_t n = 0;
  size_t dims = 0;
  double eps = 0;
  size_t min_pts = 0;
  size_t key_bits = 0;
  /// Distinct datasets per run, cycled job by job, so a run's medians
  /// average over inputs instead of hanging on one draw.
  size_t inputs = 0;
};

Spec SpecFor(const RunConfig& config) {
  Spec spec;
  if (config.workload == "hz2-exact") {
    spec = {PartitionScheme::kHorizontal, 40, 2, 0.5, 4, 1024, 16};
  } else {
    spec = {PartitionScheme::kVertical, 40, 4, 0.9, 4, 512, 16};
  }
  if (config.smoke) {
    spec.n = 12;
    spec.key_bits = 512;
    spec.inputs = 1;
  }
  return spec;
}

/// One job's input for both parties plus what the plaintext oracle says
/// each party must output.
struct JobInput {
  ClusteringJob jobs[2];
  DbscanResult expect[2];
  /// Horizontal: byte-identical to the simulator. Vertical: the same
  /// clustering as centralized DBSCAN up to cluster ids, equal core flags.
  bool exact_labels = true;
  size_t flight = 1;
};

Dataset Subset(const Dataset& full, const std::vector<size_t>& ids) {
  Dataset out(full.dims());
  for (size_t i : ids) PPD_CHECK(out.Add(full.point(i)).ok());
  return out;
}

/// Builds the run's inputs from the seed and times the plaintext oracle on
/// them (median per input over repetitions).
std::vector<JobInput> MakeInputs(const Spec& spec, uint64_t seed,
                                 double* plain_s) {
  FixedPointEncoder encoder(kEncoderScale);
  std::vector<Dataset> fulls;
  int64_t max_abs = 1;
  for (size_t k = 0; k < spec.inputs; ++k) {
    SecureRng rng(MixSeed(seed, 100 + k));
    constexpr size_t kClusters = 4;
    const size_t per_cluster = spec.n * 9 / 10 / kClusters;
    fulls.push_back(MakeBalancedBlobs(rng, kClusters, per_cluster,
                                      spec.n - kClusters * per_cluster,
                                      spec.dims));
    for (size_t i = 0; i < fulls.back().size(); ++i) {
      for (int64_t c : fulls.back().point(i)) {
        max_abs = std::max(max_abs, std::abs(c));
      }
    }
  }

  ProtocolOptions options;
  options.params = {*encoder.EncodeEpsSquared(spec.eps), spec.min_pts};
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  options.comparator.magnitude_bound =
      RecommendedComparatorBound(spec.dims, max_abs);
  options.round_deadline_ms = kRoundDeadlineMs;
  options.plan.mode = PlanMode::kExact;

  std::vector<JobInput> inputs;
  std::vector<double> oracle_s;
  for (size_t k = 0; k < spec.inputs; ++k) {
    const Dataset& full = fulls[k];
    JobInput in;
    constexpr int kOracleReps = 9;
    std::vector<double> reps;
    if (spec.scheme == PartitionScheme::kHorizontal) {
      // Random 50/50 split with exactly n/2 points each.
      SecureRng rng(MixSeed(seed, 200 + k));
      std::vector<size_t> order(full.size());
      std::iota(order.begin(), order.end(), 0);
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.UniformU64(i)]);
      }
      std::vector<size_t> a(order.begin(), order.begin() + full.size() / 2);
      std::vector<size_t> b(order.begin() + full.size() / 2, order.end());
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      Dataset alice = Subset(full, a);
      Dataset bob = Subset(full, b);
      for (int r = 0; r < kOracleReps; ++r) {
        const Clock::time_point t0 = Clock::now();
        in.expect[0] = SimulateHorizontalParty(alice, {&bob}, options.params);
        in.expect[1] = SimulateHorizontalParty(bob, {&alice}, options.params);
        reps.push_back(SecondsBetween(t0, Clock::now()));
      }
      in.flight = bob.size() * bob.dims();  // one HDP cipher matrix
      in.jobs[0] = ClusteringJob::Horizontal(std::move(alice),
                                             PartyRole::kAlice, options);
      in.jobs[1] =
          ClusteringJob::Horizontal(std::move(bob), PartyRole::kBob, options);
    } else {
      Result<VerticalPartition> split = PartitionVertical(full, spec.dims / 2);
      PPD_CHECK(split.ok());
      for (int r = 0; r < kOracleReps; ++r) {
        const Clock::time_point t0 = Clock::now();
        in.expect[0] = RunDbscan(full, options.params);
        reps.push_back(SecondsBetween(t0, Clock::now()));
      }
      in.expect[1] = in.expect[0];
      in.exact_labels = false;
      in.flight = 1;  // the vertical scan compares one pair per round trip
      in.jobs[0] = ClusteringJob::Vertical(std::move(split->alice),
                                           PartyRole::kAlice, options);
      in.jobs[1] = ClusteringJob::Vertical(std::move(split->bob),
                                           PartyRole::kBob, options);
    }
    oracle_s.push_back(Median(reps));
    inputs.push_back(std::move(in));
  }
  *plain_s = Median(oracle_s);
  return inputs;
}

bool Matches(const JobInput& in, int party, const RunOutcome& out) {
  const DbscanResult& want = in.expect[party];
  if (in.exact_labels) return SameResult(out.clustering, want);
  return SameClustering(out.clustering.labels, want.labels) &&
         out.clustering.is_core == want.is_core;
}

/// Two connected runtimes. Channels live on the heap, so the runtimes'
/// channel references survive moves of the pair.
struct Pair {
  std::unique_ptr<Channel> ends[2];
  TimedChannel* timed[2] = {nullptr, nullptr};
  std::optional<PartyRuntime> runtime[2];
};

/// Creates and connects one pair (both parties concurrently, each on its
/// own thread). `timed` wraps each end in a TimedChannel. Appends this
/// trial's timings to `setup` when given.
Pair ConnectPair(const SmcOptions& smc, uint64_t seed, bool timed,
                 Tracer* tracer, SetupRecord* setup) {
  Pair pair;
  const Clock::time_point start = Clock::now();
  auto [a, b] = MemoryChannel::CreatePair();
  pair.ends[0] = std::move(a);
  pair.ends[1] = std::move(b);
  if (timed) {
    for (int p = 0; p < 2; ++p) {
      auto wrapped = std::make_unique<TimedChannel>(std::move(pair.ends[p]));
      pair.timed[p] = wrapped.get();
      pair.ends[p] = std::move(wrapped);
    }
  }
  const double mesh_s = SecondsBetween(start, Clock::now());
  ScopedSpan span(tracer, "setup");
  double connect_s[2] = {0, 0};
  Status status[2];
  const auto party = [&](int p) {
    ScopedSpan connect(tracer, "smc.Connect", span.id(), -1, p);
    const Clock::time_point t0 = Clock::now();
    Result<PartyRuntime> runtime = PartyRuntime::Connect(
        *pair.ends[p], SecureRng(MixSeed(seed, static_cast<uint64_t>(p))), smc);
    connect_s[p] = SecondsBetween(t0, Clock::now());
    if (runtime.ok()) {
      pair.runtime[p].emplace(std::move(*runtime));
    } else {
      status[p] = runtime.status();
      pair.ends[p]->Close();  // unblock the peer
    }
  };
  std::thread bob(party, 1);
  party(0);
  bob.join();
  for (const Status& s : status) {
    if (!s.ok()) {
      std::fprintf(stderr, "jobbench: connect failed: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
  }
  if (setup != nullptr) {
    setup->setup_s.push_back(SecondsBetween(start, Clock::now()));
    setup->establish_s.push_back(connect_s[0]);
    setup->mesh_s.push_back(mesh_s);
  }
  return pair;
}

JobRecord RunJob(Pair& pair, const JobInput& in, Tracer* tracer,
                 int64_t job_id) {
  JobRecord rec;
  rec.traced = tracer != nullptr;
  PaillierRandomizerPool* pool =
      pair.runtime[0]->session().own_randomizer_pool();
  const uint64_t produced_before = pool ? pool->produced() : 0;
  rec.pool_available = pool ? static_cast<double>(pool->available()) : 0;

  Clock::time_point enter[2], leave[2];
  std::optional<Result<RunOutcome>> out[2];
  const int64_t job_span = tracer ? tracer->Begin("job", -1, job_id) : -1;
  const auto party = [&](int p) {
    TimedChannel* timed = pair.timed[p];
    if (timed != nullptr) timed->ResetTimers();
    const int64_t span =
        tracer ? tracer->Begin("core.Run", job_span, job_id, p) : -1;
    enter[p] = Clock::now();
    out[p].emplace(pair.runtime[p]->Run(in.jobs[p]));
    leave[p] = Clock::now();
    if (tracer != nullptr) {
      std::map<std::string, double> counts;
      if (timed != nullptr) {
        counts["net.send_s"] = timed->send_seconds();
        counts["net.recv_wait_s"] = timed->recv_seconds();
      }
      tracer->End(span, std::move(counts));
    }
  };
  std::thread bob(party, 1);
  party(0);
  bob.join();
  if (tracer != nullptr) tracer->End(job_span);

  rec.wall_s = SecondsBetween(std::min(enter[0], enter[1]),
                              std::max(leave[0], leave[1]));
  rec.run_s = SecondsBetween(enter[0], leave[0]);
  if (pair.timed[0] != nullptr) {
    rec.send_s = pair.timed[0]->send_seconds();
    rec.recv_wait_s = pair.timed[0]->recv_seconds();
  }
  rec.pool_produced =
      pool ? static_cast<double>(pool->produced() - produced_before) : 0;
  if (!out[0]->ok() || !out[1]->ok()) {
    for (int p = 0; p < 2; ++p) {
      if (!out[p]->ok()) {
        std::fprintf(stderr, "jobbench: job %lld party %d failed: %s\n",
                     static_cast<long long>(job_id), p,
                     out[p]->status().ToString().c_str());
      }
    }
    return rec;
  }
  const RunOutcome& o0 = **out[0];
  const RunOutcome& o1 = **out[1];
  rec.ok = Matches(in, 0, o0) && Matches(in, 1, o1);
  if (!rec.ok) {
    std::fprintf(stderr, "jobbench: job %lld labels differ from the oracle\n",
                 static_cast<long long>(job_id));
  }
  AddPartyZero(o0, rec);
  rec.mb =
      static_cast<double>(o0.stats.bytes_sent + o1.stats.bytes_sent) / 1e6;
  return rec;
}

}  // namespace

void RunTwoParty(const RunConfig& config, Report& report, Tracer* tracer) {
  const Spec spec = SpecFor(config);
  double plain_s = 0;
  const std::vector<JobInput> inputs = MakeInputs(spec, config.seed, &plain_s);
  SmcOptions smc;
  smc.paillier_bits = spec.key_bits;
  smc.rsa_bits = spec.key_bits;

  // Probe first, while no session's randomizer pool is refilling behind it.
  if (tracer != nullptr) {
    RunProbes({spec.key_bits, inputs[0].flight}, config.seed,
              report, tracer);
  }

  SetupRecord setup;
  const size_t trials = config.smoke ? 1 : kSetupTrials;
  std::optional<Pair> traced_pair;
  std::optional<Pair> plain_pair;
  for (size_t t = 0; t < trials; ++t) {
    // Destroy the previous trial's runtimes first, so their background
    // pools do not compete with this trial's key generation.
    plain_pair.reset();
    traced_pair.reset();
    Pair pair = ConnectPair(smc, MixSeed(config.seed, 300 + t),
                            tracer != nullptr, tracer, &setup);
    (tracer != nullptr ? traced_pair : plain_pair).emplace(std::move(pair));
  }
  if (tracer != nullptr) {
    plain_pair.emplace(ConnectPair(smc, MixSeed(config.seed, 400), false,
                                   nullptr, nullptr));
  }

  // Untimed warm-up job on every pair.
  int64_t job_id = 0;
  for (Pair* pair : {plain_pair ? &*plain_pair : nullptr,
                     traced_pair ? &*traced_pair : nullptr}) {
    if (pair == nullptr) continue;
    if (!RunJob(*pair, inputs[0], nullptr, job_id++).ok) {
      std::fprintf(stderr, "jobbench: warm-up job failed\n");
      std::exit(1);
    }
  }

  std::vector<JobRecord> jobs;
  const size_t min_jobs = tracer != nullptr ? 2 : 1;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point loop_start = Clock::now();
  const auto running = [&] {
    return SecondsBetween(loop_start, Clock::now()) < config.seconds;
  };
  for (size_t k = 0; k < min_jobs || running(); ++k) {
    // A traced run alternates traced and untraced jobs, so the tracing
    // overhead is measured against jobs interleaved with it.
    const bool traced = tracer != nullptr && k % 2 == 0;
    Pair& pair = traced ? *traced_pair : *plain_pair;
    jobs.push_back(RunJob(pair, inputs[k % inputs.size()],
                          traced ? tracer : nullptr, job_id++));
  }
  const double loop_wall = SecondsBetween(loop_start, Clock::now());
  const double loop_cpu = ProcessCpuSeconds() - cpu0;

  CountJobs(jobs, report);
  if (tracer != nullptr) {
    AddLayers(jobs, setup, plain_s, report);
  } else {
    AddEndToEnd(jobs, loop_wall, loop_cpu, setup, report);
  }
  report.Info("input", "{\"n\": " + std::to_string(spec.n) +
                           ", \"dims\": " + std::to_string(spec.dims) +
                           ", \"key_bits\": " + std::to_string(spec.key_bits) +
                           ", \"inputs\": " + std::to_string(spec.inputs) +
                           ", \"flight\": " +
                           std::to_string(inputs[0].flight) + "}");
}

}  // namespace jobbench
