#ifndef PPDBSCAN_CORE_JOB_H_
#define PPDBSCAN_CORE_JOB_H_

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/options.h"
#include "data/partitioners.h"
#include "dbscan/dataset.h"
#include "eval/leakage.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Version of the job protocol, sent first in the kJobHello wire message
/// every PartyRuntime::Run opens with. Bump whenever the hello layout, the
/// canonical ProtocolOptions serialization behind ProtocolOptionsDigest, or
/// the layout, count or order of the frames of any protocol a job runs
/// (plan, HDP, membership, comparator, vertical, arbitrary, merge)
/// changes; peers with different versions fail the handshake with
/// kFailedPrecondition instead of misreading each other's frames.
/// Version 5: one inner-product cipher per HDP/membership/arbitrary pair
/// and one blinded query cipher per comparator group. Version 6: the
/// multi-party scan and the sieve plan's core tests run one membership
/// round per peer instead of one HDP batch per point.
inline constexpr uint16_t kJobProtocolVersion = 6;

/// How the virtual database is split between the parties — the four
/// variants of the paper presented as one protocol family (§4.2 horizontal,
/// §4.3 vertical, §4.4 arbitrary, §1 multi-party horizontal).
enum class PartitionScheme : uint8_t {
  kHorizontal = 0,
  kVertical = 1,
  kArbitrary = 2,
  kMultiparty = 3,
};

const char* PartitionSchemeToString(PartitionScheme scheme);

/// One party's private input: complete records (horizontal/multiparty),
/// attribute columns (vertical), or a cell-ownership view (arbitrary).
using LocalData = std::variant<Dataset, ArbitraryPartyView>;

/// Everything that defines one clustering run from one party's point of
/// view: the partition scheme, this party's local data, the protocol
/// configuration both parties must share (verified on the wire by the
/// negotiation round), and this party's position. A ClusteringJob is a
/// plain value — build it once, hand it to PartyRuntime::Run, reuse or
/// modify it freely between runs.
struct ClusteringJob {
  PartitionScheme scheme = PartitionScheme::kHorizontal;
  LocalData data = Dataset(1);
  ProtocolOptions options;

  /// Two-party position (ignored for kMultiparty). Horizontal runs are
  /// symmetric; vertical/arbitrary runs are driven by Alice by convention.
  PartyRole role = PartyRole::kAlice;

  /// Multi-party position (kMultiparty only): this party's slot in the
  /// public driver order and the total party count.
  size_t party_index = 0;
  size_t party_count = 0;

  static ClusteringJob Horizontal(Dataset own_points, PartyRole role,
                                  ProtocolOptions options);
  static ClusteringJob Vertical(Dataset own_columns, PartyRole role,
                                ProtocolOptions options);
  static ClusteringJob Arbitrary(ArbitraryPartyView own_view, PartyRole role,
                                 ProtocolOptions options);
  static ClusteringJob Multiparty(Dataset own_points, size_t party_index,
                                  size_t party_count, ProtocolOptions options);

  /// Number of local records and attribute dimensions (used for pool
  /// pre-warming and validation).
  size_t record_count() const;
  size_t dims() const;
};

/// Everything one party learns from one Run, in one report: its clustering,
/// exact per-job traffic (negotiation + protocol; session key exchange is
/// excluded, matching the paper's per-invocation accounting), the
/// disclosure log, the §5 selection-comparison count (horizontal enhanced
/// mode only), and per-phase wall time.
struct RunOutcome {
  PartyClusteringResult clustering;
  ChannelStats stats;
  DisclosureLog disclosures;
  uint64_t selection_comparisons = 0;

  /// What the clustering planner did: candidate/interior splits, measured
  /// encrypted-comparison counts vs the exact-mode model, sieve assignment
  /// counters (core/plan.h). Always populated — exact-mode runs report
  /// their measured comparisons with zero savings.
  PlanStats plan;

  struct Timings {
    double negotiation_seconds = 0;
    double protocol_seconds = 0;
    double total_seconds = 0;
  };
  Timings timings;

  /// Serve-mode only: a per-mesh-link health snapshot taken when the job
  /// finished (empty for one-shot PartyRuntime runs). Counters are
  /// cumulative over the server's lifetime, not per job.
  std::vector<LinkHealth> link_health;
};

/// One party's long-lived protocol endpoint: owns (or borrows) the channel
/// set, the established SMC session(s), and this party's rng. Sessions are
/// established once at Connect time and REUSED across every subsequent
/// Run, amortizing Paillier/RSA key generation over repeated jobs on one
/// connection. Each Run opens with a versioned config-negotiation round,
/// so two parties whose ProtocolOptions (or scheme, or roles) diverge fail
/// with a descriptive kFailedPrecondition on both sides instead of
/// desyncing or hanging mid-protocol.
///
/// Typical two-party deployment (see examples/tcp_parties.cc):
///
///     auto channel = SocketChannel::Connect(host, port);
///     PPD_ASSIGN_OR_RETURN(PartyRuntime runtime,
///         PartyRuntime::Connect(std::move(*channel), SecureRng()));
///     PPD_ASSIGN_OR_RETURN(RunOutcome outcome, runtime.Run(job));
///
/// Not thread-safe; one runtime per party thread.
class PartyRuntime {
 public:
  /// Two-party runtime over a connected channel the caller keeps alive.
  /// Generates this party's key pairs and exchanges public keys (both
  /// parties must call Connect concurrently). Channel statistics are reset
  /// afterwards so per-job stats exclude key setup.
  static Result<PartyRuntime> Connect(Channel& channel, SecureRng rng,
                                      const SmcOptions& smc = {});

  /// Owning variant: the runtime keeps the channel alive until destroyed.
  static Result<PartyRuntime> Connect(std::unique_ptr<Channel> channel,
                                      SecureRng rng,
                                      const SmcOptions& smc = {});

  /// Multi-party runtime over a full mesh: links[j] is the channel to party
  /// j (the entry at `index` is ignored and may be null). Establishes one
  /// SMC session per link, every pair in the same public order — all
  /// parties must call ConnectMesh concurrently.
  static Result<PartyRuntime> ConnectMesh(const std::vector<Channel*>& links,
                                          size_t index, SecureRng rng,
                                          const SmcOptions& smc = {});

  /// Mesh runtime over sessions established EARLIER (by a previous
  /// ConnectMesh, handed out through shared_sessions()): borrows `links`
  /// for this job's rounds and shares the session key material — no key
  /// generation or exchange happens here. This is how a serve daemon
  /// amortizes its one Connect-time key exchange across every job of its
  /// lifetime: links[j] may be a different channel than the one
  /// sessions[j] was established over (e.g. a per-job mux stream riding
  /// the same TCP connection). sessions[index] is ignored; every other
  /// slot must be non-null and sized to match `links`.
  static Result<PartyRuntime> AdoptMesh(
      const std::vector<Channel*>& links, size_t index,
      std::vector<std::shared_ptr<SmcSession>> sessions, SecureRng rng);

  PartyRuntime(PartyRuntime&&) = default;
  PartyRuntime& operator=(PartyRuntime&&) = default;
  PartyRuntime(const PartyRuntime&) = delete;
  PartyRuntime& operator=(const PartyRuntime&) = delete;

  /// Runs one job over the established session(s): negotiation round,
  /// randomizer-pool pre-warm from the job's count × dims, then the
  /// scheme's protocol. Callable repeatedly; each call resets the traffic
  /// counters so RunOutcome::stats covers exactly that job.
  Result<RunOutcome> Run(const ClusteringJob& job);

  /// Mesh-only: re-runs SMC session establishment with `peer` over `link`
  /// (a freshly reconnected channel), replacing that slot's session and
  /// link in place — the serve layer's link-heal path. Both ends of the
  /// healed link must call this concurrently, exactly like Establish;
  /// the other P-2 sessions are untouched, so a follower restart never
  /// forces the rest of the fleet to re-key. `link` must outlive the
  /// runtime (or the next Reestablish/teardown). Stats are reset on
  /// success so per-job accounting stays clean.
  Status ReestablishSession(size_t peer, Channel& link,
                            const SmcOptions& smc = {});

  /// The reusable two-party session (PPD_CHECKs on mesh runtimes). Exposed
  /// for callers layering custom sub-protocols over the same keys (e.g.
  /// examples/intersection_attack.cc).
  const SmcSession& session() const;
  /// The session with mesh peer `j` (null at this party's own index).
  const SmcSession* session_with(size_t peer) const;
  /// The established sessions themselves, shareable with AdoptMesh
  /// runtimes that outlive (or run concurrently with) this one. Indexed by
  /// peer; empty slot at this party's own position.
  const std::vector<std::shared_ptr<SmcSession>>& shared_sessions() const {
    return sessions_;
  }
  /// The two-party channel (PPD_CHECKs on mesh runtimes).
  Channel& channel() const;

  SecureRng& rng() { return *rng_; }
  size_t parties() const { return parties_; }
  /// Jobs completed successfully on this runtime (== how many runs shared
  /// the one key exchange).
  uint64_t jobs_completed() const { return jobs_completed_; }
  /// Wall time the Connect-time key exchange took.
  double establish_seconds() const { return establish_seconds_; }

 private:
  PartyRuntime() = default;

  Status ValidateJob(const ClusteringJob& job) const;
  Status Negotiate(const ClusteringJob& job);
  Result<RunOutcome> RunJobRounds(const ClusteringJob& job);

  bool mesh_ = false;
  size_t index_ = 0;    // mesh slot; two-party: 0 = alice convention unused
  size_t parties_ = 2;  // party count (mesh); 2 for two-party runtimes
  std::vector<std::unique_ptr<Channel>> owned_channels_;
  std::vector<Channel*> links_;  // two-party: one entry; mesh: size P
  // Parallel to links_. shared_ptr so AdoptMesh runtimes can reuse the
  // key material established by an earlier ConnectMesh.
  std::vector<std::shared_ptr<SmcSession>> sessions_;
  std::unique_ptr<SecureRng> rng_;
  double establish_seconds_ = 0;
  uint64_t jobs_completed_ = 0;
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_JOB_H_
