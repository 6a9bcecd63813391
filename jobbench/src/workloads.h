#ifndef JOBBENCH_WORKLOADS_H_
#define JOBBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/job.h"
#include "dbscan/dbscan.h"
#include "report.h"
#include "trace.h"

namespace jobbench {

/// Receive deadline every workload negotiates, so a wedged job fails with a
/// named status (and counts against ok_frac) instead of hanging the run.
inline constexpr int32_t kRoundDeadlineMs = 60000;

/// Setup trials per run: setup_s is their median.
inline constexpr size_t kSetupTrials = 21;

/// One timed job as the harness saw it. Party-0 fields come from its
/// RunOutcome and from the benchmark's own spans and channel decorator.
struct JobRecord {
  bool traced = false;
  bool ok = false;          // returned OK on every party and matched the oracle
  double wall_s = 0;        // first party entering Run/SubmitJob to last return
  double mb = 0;            // bytes sent by all parties, MB
  double rounds = 0;        // party 0 ChannelStats::rounds
  double wan_s = 0;         // ProjectedSeconds(party 0 stats, MetroWanLink())
  // Party 0, per layer.
  double run_s = 0;         // PartyRuntime::Run wall
  double program_run_s = 0; // RunOutcome::timings.total_seconds
  double negotiate_s = 0;
  double send_s = 0;        // inside Channel::Send (decorated transports)
  double recv_wait_s = 0;   // blocked in Channel::Recv (decorated transports)
  double submit_s = 0;      // PartyServer::SubmitJob wall (serve only)
  double retries = 0;       // PartyServer::job_retries() delta (serve only)
  double plan_cmp = 0;
  double plan_saved_frac = 0;
  double frames = 0;
  double bytes = 0;
  double deadline_trips = 0;
  double aborts_seen = 0;
  double pool_produced = 0;
  double pool_available = 0;
};

/// Setup-time facts: one entry per setup trial.
struct SetupRecord {
  std::vector<double> setup_s;       // until the first job can start
  std::vector<double> establish_s;   // PartyRuntime::Connect, party 0
  std::vector<double> mesh_s;        // transport establishment, party 0
  std::vector<double> serve_start_s; // PartyServer::Start, party 0
};

/// Shape of the crypto/bigint unit-cost probe: the workload's key size and
/// its encrypted flight (ciphertexts per batched call).
struct ProbeShape {
  size_t key_bits = 512;  // Paillier and RSA modulus size
  size_t flight = 8;
};

/// hz2-exact and vt2-exact: two PartyRuntimes over a MemoryChannel pair.
void RunTwoParty(const RunConfig& config, Report& report, Tracer* tracer);
/// serve3-prune: three PartyServers over a loopback-TCP PartyMesh.
void RunServe3(const RunConfig& config, Report& report, Tracer* tracer);

/// Times the public crypto and bigint batch APIs single-threaded at
/// `shape` and adds the crypto.* and bigint.* metrics.
void RunProbes(const ProbeShape& shape, uint64_t seed, Report& report,
               Tracer* tracer);

/// End-to-end metrics from the untraced jobs of a run.
void AddEndToEnd(const std::vector<JobRecord>& jobs, double loop_wall_s,
                 double loop_cpu_s, const SetupRecord& setup, Report& report);

/// Per-layer metrics from the traced jobs (and the overhead against the
/// untraced ones interleaved with them). `plain_s` is the plaintext oracle
/// time on the same input.
void AddLayers(const std::vector<JobRecord>& jobs, const SetupRecord& setup,
               double plain_s, Report& report);

/// Fills `rec` with party 0's view of a successful job from its
/// RunOutcome: traffic, rounds, WAN projection, timers, planner counters.
void AddPartyZero(const ppdbscan::RunOutcome& outcome, JobRecord& rec);

/// Byte-identical labels and core flags.
bool SameResult(const ppdbscan::PartyClusteringResult& got,
                const ppdbscan::DbscanResult& want);

/// Counts jobs and failures into the report's header fields.
void CountJobs(const std::vector<JobRecord>& jobs, Report& report);

}  // namespace jobbench

#endif  // JOBBENCH_WORKLOADS_H_
