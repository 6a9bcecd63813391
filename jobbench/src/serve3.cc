// serve3-prune: three in-process PartyServers over a loopback-TCP
// PartyMesh; party 0 submits short prune-mode jobs in a closed loop.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "core/serve.h"
#include "dbscan/grid_index.h"
#include "data/fixed_point.h"
#include "eval/plan_eval.h"
#include "inputs.h"
#include "workloads.h"

namespace jobbench {
namespace {

using namespace ppdbscan;

constexpr size_t kParties = 3;

struct Spec {
  size_t n = 60;  // points per job, all parties together
  size_t key_bits = 512;
  size_t inputs = 512;  // distinct datasets, cycled job by job
  // Encrypted comparisons a job's input must leave after pruning, all
  // parties together (see MakeInputs).
  uint64_t work_lo = 40;
  uint64_t work_hi = 44;
};

/// Bound on the draws for one input; a draw lands in the work window about
/// one time in nine.
constexpr size_t kMaxDraws = 10000;

struct JobInput {
  ClusteringJob jobs[kParties];
  DbscanResult expect[kParties];
};

/// The three parties' shares of `full`: contiguous bands of the first
/// coordinate, equal in size.
std::vector<Dataset> SplitIntoBands(const Dataset& full) {
  std::vector<size_t> order(full.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return full.point(a)[0] < full.point(b)[0];
  });
  std::vector<Dataset> shares(kParties, Dataset(full.dims()));
  for (size_t r = 0; r < order.size(); ++r) {
    PPD_CHECK(
        shares[r * kParties / order.size()].Add(full.point(order[r])).ok());
  }
  return shares;
}

/// Encrypted comparisons the prune planner leaves in a job on `shares`, all
/// parties together: each own point within Eps of a peer's bounding box
/// queries that peer's points within Eps of our box.
uint64_t PrunedComparisons(const std::vector<Dataset>& shares,
                           int64_t eps_squared) {
  std::vector<BoundingBox> boxes;
  for (const Dataset& share : shares) {
    boxes.push_back(ComputeBoundingBox(share));
  }
  uint64_t band[kParties][kParties] = {};
  for (size_t i = 0; i < kParties; ++i) {
    for (size_t j = 0; j < kParties; ++j) {
      if (i == j) continue;
      for (size_t r = 0; r < shares[i].size(); ++r) {
        const std::vector<int64_t>& point = shares[i].point(r);
        if (DistanceSquaredToBox(point, boxes[j]) <= eps_squared) ++band[i][j];
      }
    }
  }
  uint64_t total = 0;
  for (size_t i = 0; i < kParties; ++i) {
    for (size_t j = 0; j < kParties; ++j) {
      if (i != j) total += band[i][j] * band[j][i];
    }
  }
  return total;
}

/// Builds the run's datasets: 2-D blobs plus noise, split into three
/// contiguous bands of the first coordinate (the geographic setting the
/// eps-boundary planner prunes). Also times the plaintext oracle.
std::vector<JobInput> MakeInputs(const Spec& spec, uint64_t seed,
                                 double* plain_s) {
  FixedPointEncoder encoder(kEncoderScale);
  ProtocolOptions options;
  options.params = {*encoder.EncodeEpsSquared(0.6), 4};
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  options.round_deadline_ms = kRoundDeadlineMs;
  options.plan.mode = PlanMode::kPrune;

  std::vector<std::vector<Dataset>> splits;
  int64_t max_abs = 1;
  for (size_t k = 0; k < spec.inputs; ++k) {
    SecureRng rng(MixSeed(seed, 500 + k));
    // Many small clusters spread along x. The encrypted work still depends
    // on how many points lie near the two band cuts: over draws of this
    // generator it spans 0 to 130 comparisons a job (median 42), and a
    // job's time follows it, so the median job would follow the seed.
    // Drawing again until the work is in a narrow window around the median
    // gives every seed the same work with different data.
    const size_t clusters = spec.n / 8;
    const size_t per_cluster = 6;
    std::vector<Dataset> shares;
    for (size_t draw = 0;; ++draw) {
      PPD_CHECK(draw < kMaxDraws);
      const Dataset full =
          MakeBalancedBlobs(rng, clusters, per_cluster,
                            spec.n - clusters * per_cluster, 2);
      shares = SplitIntoBands(full);
      const uint64_t work =
          PrunedComparisons(shares, options.params.eps_squared);
      if (spec.work_lo <= work && work <= spec.work_hi) break;
    }
    for (const Dataset& share : shares) {
      for (size_t i = 0; i < share.size(); ++i) {
        for (int64_t c : share.point(i)) {
          max_abs = std::max(max_abs, std::abs(c));
        }
      }
    }
    splits.push_back(std::move(shares));
  }
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, max_abs);

  std::vector<JobInput> inputs;
  std::vector<double> oracle_s;
  for (std::vector<Dataset>& shares : splits) {
    JobInput in;
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (size_t p = 0; p < kParties; ++p) {
        std::vector<const Dataset*> peers;
        for (size_t q = 0; q < kParties; ++q) {
          if (q != p) peers.push_back(&shares[q]);
        }
        in.expect[p] =
            SimulateHorizontalParty(shares[p], peers, options.params);
      }
      reps.push_back(SecondsBetween(t0, Clock::now()));
    }
    oracle_s.push_back(Median(reps));
    for (size_t p = 0; p < kParties; ++p) {
      in.jobs[p] = ClusteringJob::Multiparty(std::move(shares[p]), p, kParties,
                                             options);
    }
    inputs.push_back(std::move(in));
  }
  *plain_s = Median(oracle_s);
  return inputs;
}

using Fleet = std::vector<std::optional<PartyServer>>;

/// Binds, meshes and starts the three servers (each party on its own
/// thread). Appends the trial's timings to `setup`.
Fleet StartFleet(const SmcOptions& smc, uint64_t seed, Tracer* tracer,
                 SetupRecord& setup) {
  const Clock::time_point start = Clock::now();
  ScopedSpan span(tracer, "setup");
  std::vector<MeshEndpoint> endpoints(kParties);
  std::vector<std::optional<SocketListener>> listeners(kParties);
  for (size_t i = 1; i < kParties; ++i) {
    Result<SocketListener> bound =
        SocketListener::Bind(0, static_cast<int>(kParties));
    if (!bound.ok()) {
      std::fprintf(stderr, "jobbench: bind failed: %s\n",
                   bound.status().ToString().c_str());
      std::exit(1);
    }
    endpoints[i].port = bound->port();
    listeners[i].emplace(std::move(*bound));
  }
  Fleet fleet(kParties);
  double mesh_s[kParties] = {};
  double start_s[kParties] = {};
  Status status[kParties];
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&, i] {
      const int party = static_cast<int>(i);
      Clock::time_point t0 = Clock::now();
      Result<PartyMesh> mesh = [&] {
        ScopedSpan s(tracer, "net.PartyMesh.Establish", span.id(), -1, party);
        return PartyMesh::EstablishWithListener(std::move(listeners[i]),
                                                endpoints, i);
      }();
      mesh_s[i] = SecondsBetween(t0, Clock::now());
      if (!mesh.ok()) {
        status[i] = mesh.status();
        return;
      }
      PartyServer::Options options;
      options.smc = smc;
      t0 = Clock::now();
      ScopedSpan s(tracer, "core.PartyServer.Start", span.id(), -1, party);
      Result<PartyServer> server =
          PartyServer::Start(std::move(*mesh), SecureRng(MixSeed(seed, i)),
                             options);
      start_s[i] = SecondsBetween(t0, Clock::now());
      if (server.ok()) {
        fleet[i].emplace(std::move(*server));
      } else {
        status[i] = server.status();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : status) {
    if (!s.ok()) {
      std::fprintf(stderr, "jobbench: fleet start failed: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
  }
  setup.setup_s.push_back(SecondsBetween(start, Clock::now()));
  setup.mesh_s.push_back(mesh_s[0]);
  setup.serve_start_s.push_back(start_s[0]);
  return fleet;
}

/// What the followers reported for one job id.
struct FollowerReports {
  std::mutex mu;
  struct Entry {
    size_t matched = 0;  // followers whose outcome matched the oracle
    uint64_t bytes_sent = 0;
  };
  std::map<uint32_t, Entry> by_job;  // guarded by mu
};

/// Runs the followers' Serve loops on their own threads until `body`
/// returns, then announces shutdown and joins them.
template <typename Body>
void WithFollowers(Fleet& fleet, const std::vector<JobInput>& inputs,
                   FollowerReports& reports, Body body) {
  std::vector<std::thread> followers;
  for (size_t i = 1; i < kParties; ++i) {
    followers.emplace_back([&, i] {
      fleet[i]->Serve(
          [&](uint32_t id) -> Result<ClusteringJob> {
            if (inputs.empty()) return Status::Internal("no jobs expected");
            return inputs[(id - 1) % inputs.size()].jobs[i];
          },
          [&](uint32_t id, const Result<RunOutcome>& outcome) {
            if (!outcome.ok()) return;
            const JobInput& in = inputs[(id - 1) % inputs.size()];
            const bool match = SameResult(outcome->clustering, in.expect[i]);
            std::lock_guard<std::mutex> lock(reports.mu);
            FollowerReports::Entry& e = reports.by_job[id];
            e.matched += match ? 1 : 0;
            e.bytes_sent += outcome->stats.bytes_sent;
          });
    });
  }
  body();
  const Status shutdown = fleet[0]->AnnounceShutdown();
  if (!shutdown.ok()) {
    std::fprintf(stderr, "jobbench: shutdown failed: %s\n",
                 shutdown.ToString().c_str());
  }
  for (std::thread& t : followers) t.join();
}

}  // namespace

void RunServe3(const RunConfig& config, Report& report, Tracer* tracer) {
  Spec spec;
  if (config.smoke) {
    spec.n = 24;
    spec.inputs = 1;
    spec.work_lo = 0;
    spec.work_hi = UINT64_MAX;
  }
  double plain_s = 0;
  const std::vector<JobInput> inputs = MakeInputs(spec, config.seed, &plain_s);
  SmcOptions smc;
  smc.paillier_bits = spec.key_bits;
  smc.rsa_bits = spec.key_bits;

  if (tracer != nullptr) {
    RunProbes({spec.key_bits, spec.n / kParties * 2},
              config.seed, report, tracer);
  }

  SetupRecord setup;
  const size_t trials = config.smoke ? 1 : kSetupTrials;
  std::optional<Fleet> fleet;
  for (size_t t = 0; t < trials; ++t) {
    if (fleet.has_value()) {
      FollowerReports unused;
      WithFollowers(*fleet, {}, unused, [] {});
      fleet.reset();
    }
    fleet.emplace(
        StartFleet(smc, MixSeed(config.seed, 600 + t), tracer, setup));
  }

  FollowerReports followers;
  std::vector<JobRecord> jobs;
  double loop_wall = 0;
  double loop_cpu = 0;
  WithFollowers(*fleet, inputs, followers, [&] {
    PartyServer& submitter = *(*fleet)[0];
    uint32_t next_id = 1;
    // Job ids are handed out by SubmitJob in submission order from 1.
    const auto submit = [&](bool traced) {
      const uint32_t id = next_id++;
      const JobInput& in = inputs[(id - 1) % inputs.size()];
      const uint64_t retries_before = submitter.job_retries();
      JobRecord rec;
      rec.traced = traced;
      const int64_t span =
          traced ? tracer->Begin("core.PartyServer.SubmitJob", -1, id, 0) : -1;
      const Clock::time_point t0 = Clock::now();
      Result<RunOutcome> out = submitter.SubmitJob(in.jobs[0]);
      rec.wall_s = SecondsBetween(t0, Clock::now());
      if (traced) tracer->End(span);
      rec.submit_s = rec.wall_s;
      rec.retries =
          static_cast<double>(submitter.job_retries() - retries_before);
      if (out.ok()) {
        rec.ok = SameResult(out->clustering, in.expect[0]);
        AddPartyZero(*out, rec);
        // The Run inside SubmitJob is out of the benchmark's reach; its
        // own timer stands in for the span.
        rec.run_s = rec.program_run_s;
        rec.mb = static_cast<double>(out->stats.bytes_sent) / 1e6;
      } else {
        std::fprintf(stderr, "jobbench: job %u failed: %s\n", id,
                     out.status().ToString().c_str());
      }
      return rec;
    };
    if (!submit(false).ok) {
      std::fprintf(stderr, "jobbench: warm-up job failed\n");
      std::exit(1);
    }
    const size_t min_jobs = tracer != nullptr ? 2 : 1;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point loop_start = Clock::now();
    const auto running = [&] {
      return SecondsBetween(loop_start, Clock::now()) < config.seconds;
    };
    for (size_t k = 0; k < min_jobs || running(); ++k) {
      jobs.push_back(submit(tracer != nullptr && k % 2 == 0));
    }
    loop_wall = SecondsBetween(loop_start, Clock::now());
    loop_cpu = ProcessCpuSeconds() - cpu0;
  });

  // Followers report asynchronously; after the shutdown join every report
  // is in. A job counts OK only if all three parties matched the oracle.
  for (size_t k = 0; k < jobs.size(); ++k) {
    const uint32_t id = static_cast<uint32_t>(k + 2);  // id 1 was the warm-up
    const FollowerReports::Entry& e = followers.by_job[id];
    jobs[k].ok = jobs[k].ok && e.matched == kParties - 1;
    jobs[k].mb += static_cast<double>(e.bytes_sent) / 1e6;
  }

  CountJobs(jobs, report);
  if (tracer != nullptr) {
    AddLayers(jobs, setup, plain_s, report);
  } else {
    AddEndToEnd(jobs, loop_wall, loop_cpu, setup, report);
  }
  report.Info("input", "{\"n\": " + std::to_string(spec.n) +
                           ", \"parties\": 3, \"key_bits\": " +
                           std::to_string(spec.key_bits) + ", \"inputs\": " +
                           std::to_string(spec.inputs) + "}");
}

}  // namespace jobbench
