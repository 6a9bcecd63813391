#ifndef PPDBSCAN_CORE_PLAN_H_
#define PPDBSCAN_CORE_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "dbscan/dataset.h"
#include "dbscan/grid_index.h"

namespace ppdbscan {

/// The clustering planner: how much of the encrypted workload a job runs.
/// Sits between ClusteringJob and the protocol rounds — the planner decides
/// per point whether it ever enters a secure comparison, the protocols
/// execute the decision. Negotiated like every other protocol option (part
/// of the job hello and the options digest), so parties with divergent
/// plans fail kFailedPrecondition instead of desyncing.
enum class PlanMode : uint8_t {
  /// Every point pays the full O(n_own · n_peer) encrypted bill — the
  /// paper's protocols exactly as written.
  kExact = 0,
  /// Eps-boundary pruning. The parties exchange plaintext bounding boxes of
  /// their local data; a point farther than Eps from every peer box
  /// provably has zero cross-party neighbours, so its core decision is
  /// purely local (no SMC ever). Only boundary-band points enter encrypted
  /// comparator rounds, and each party exposes only its own band when
  /// responding. LOSSLESS: labels are byte-identical to exact mode on
  /// every scheme. Discloses the bounding boxes and band sizes (recorded
  /// in the DisclosureLog). No-op for vertical/arbitrary partitions, where
  /// every party sees every record id already.
  kPrune = 1,
  /// Sieved clustering (cpptraj-style): run the full protocol on the
  /// deterministic 1-in-k subset {0, k, 2k, ...}, assign leftovers to the
  /// discovered clusters via their nearest local sieved core, and resolve
  /// the remainder with ONE batched encrypted eps-membership round against
  /// the peer's sieved subset. APPROXIMATE: ~k² fewer encrypted
  /// comparisons for a measured label-agreement cost (the eval harness
  /// reports ARI vs exact). Horizontal-family schemes only.
  kSieve = 2,
};

const char* PlanModeToString(PlanMode mode);
Result<PlanMode> PlanModeFromString(const std::string& name);

/// Negotiated planner configuration, embedded in ProtocolOptions.
struct PlanOptions {
  PlanMode mode = PlanMode::kExact;
  /// Sieve stride (kSieve only): one point in k enters the protocol.
  /// Must be >= 2 when mode == kSieve; ignored otherwise.
  uint32_t sieve_k = 4;
};

/// What the planner did to one party's run, reported in RunOutcome. The
/// measured counters come from the SecureComparator invocation counts;
/// the model values are the planner's own predictions, so the eval harness
/// can assert prediction against measurement.
struct PlanStats {
  PlanMode mode = PlanMode::kExact;
  uint32_t sieve_k = 0;

  uint64_t local_points = 0;  // this party's record count
  /// Sum of peer record counts, disclosed by the plan round (0 in exact
  /// mode, which runs no plan round and discloses nothing).
  uint64_t peer_points = 0;
  /// Own points that enter encrypted core tests as the scanning party
  /// (prune: boundary band; sieve: sieved subset; exact: all).
  uint64_t candidate_points = 0;
  /// Prune only: own points whose core decision was made locally.
  uint64_t interior_points = 0;
  /// Own points exposed to peer queries when responding (prune: band
  /// vs that peer's box, summed over peers; sieve: sieved subset).
  uint64_t responder_points = 0;

  // Sieve assignment phase.
  uint64_t sieve_assigned_local = 0;  // leftovers claimed by a local sieved core
  uint64_t sieve_rescued = 0;         // leftovers resolved by the rescue round
  uint64_t sieve_noise = 0;           // leftovers labeled noise
  uint64_t rescue_queries = 0;        // points in the encrypted rescue batch

  /// Measured secure comparisons with this party as the querier (driver
  /// scans + sieve rescue + merge driving).
  uint64_t encrypted_comparisons = 0;
  /// Measured secure comparisons this party assisted as the responder.
  uint64_t assisted_comparisons = 0;
  /// Cost-model baseline: what the querier side of an exact basic-mode run
  /// costs, n_own × n_peer. In exact mode this equals the measurement (and
  /// is set from it when the peer count is unknown).
  uint64_t exact_comparisons = 0;
  /// The planner's scan-phase prediction (prune: band × peer band; sieve:
  /// sieved × peer sieved). Exact in basic mode; the sieve rescue round is
  /// measured, not predicted (its size depends on the data).
  uint64_t predicted_comparisons = 0;

  /// 1 − encrypted/exact, clamped to [0, 1]; 0 when exact is 0.
  double SavedFraction() const;
  /// One-line human summary for the CLI run table and serve job lines,
  /// e.g. "plan[prune] cmp=1234 exact=523776 saved=99.8% cand=37/512".
  std::string Summary() const;
};

/// The deterministic 1-in-k sieve: indices {0, k, 2k, ...} < n.
std::vector<size_t> SievedIndices(size_t n, uint32_t k);
/// The complement of SievedIndices, ascending.
std::vector<size_t> LeftoverIndices(size_t n, uint32_t k);
/// |SievedIndices(n, k)| without materializing it: ceil(n / k).
uint64_t SievedCount(uint64_t n, uint32_t k);

/// A new dataset holding ds[indices[0]], ds[indices[1]], ... — the
/// planner's subset view (responder bands, sieved subsets).
Dataset SubsetDataset(const Dataset& ds, const std::vector<size_t>& indices);

/// Wire codec for the plan round's bounding box: u8 presence flag, then
/// lo/hi per dimension. `dims` is the job's public dimensionality.
void WriteBoundingBox(ByteWriter& out, const BoundingBox& box);
Result<BoundingBox> ReadBoundingBox(ByteReader& reader, size_t dims);

/// Protocol callouts of the sieve engine. The engine itself is pure local
/// computation; everything encrypted goes through these two hooks, which
/// the horizontal scan (core/horizontal.h) binds to its peer links.
struct SievePeerHooks {
  /// Encrypted core test for every sieved point at once. `own_full[t]` is
  /// points[t]'s neighbour count over the FULL local dataset (free
  /// plaintext); implementations fold in the peers' sieved counts — basic
  /// mode: own_full + k · Σ peer_sieved_count >= MinPts. Returns one flag
  /// per point. Called once per run, never with an empty batch.
  std::function<Result<std::vector<bool>>(
      const std::vector<std::vector<int64_t>>& points,
      const std::vector<size_t>& own_full)>
      core_test;
  /// Batched rescue round: counts[q] = peer sieved points within Eps of
  /// queries[q], summed over peers (smc/membership.h). Called at most once
  /// per run, only with the unresolved leftovers whose local count alone
  /// cannot decide core-ness; never called with an empty batch.
  std::function<Result<std::vector<size_t>>(
      const std::vector<std::vector<int64_t>>& queries)>
      membership;
};

/// The sieve plan, peer-agnostic: (1) core-test every point of the
/// deterministic 1-in-k subset in one hooks.core_test batch, in index
/// order, with full local counts, then expand the subset locally
/// (ExpandWithCoreFlags); (2) assign each leftover point to the cluster of its first (lowest
/// subset index) sieved local core within Eps; (3) for leftovers with no
/// such core, decide core-ness from own_full plus one batched
/// hooks.membership round (k-scaled), and let each surviving core found in
/// ascending index order open a new cluster claiming the still-unresolved
/// points within Eps (one hop); (4) the rest is noise. Deterministic given
/// the data — the hooks return exact counts, so reruns and serve-mode
/// replays produce byte-identical labels. Fills the sieve_* and
/// rescue_queries fields of `stats` when given.
Result<DbscanResult> RunSievePlan(const Dataset& own,
                                  const DbscanParams& params, uint32_t sieve_k,
                                  const SievePeerHooks& hooks,
                                  PlanStats* stats);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_PLAN_H_
