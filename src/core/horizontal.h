#ifndef PPDBSCAN_CORE_HORIZONTAL_H_
#define PPDBSCAN_CORE_HORIZONTAL_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/options.h"
#include "dbscan/dataset.h"
#include "eval/leakage.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Privacy-preserving DBSCAN over horizontally partitioned data —
/// Algorithms 3/4 (basic mode) and 7/8 (enhanced mode) of the paper, for
/// two parties or, by composition, for P parties (the extension §1 of the
/// paper anticipates: "the two-party algorithm can be extended to
/// multi-party cases").
///
/// Every party calls this function concurrently with its own points and
/// its position `index` in the public order 0..parties−1. `links[j]` is
/// the channel to party j and `sessions[j]` the established SMC session
/// for that link (entries at `index` are ignored and may be null). The
/// parties take the driver role in that order: party d scans while every
/// other party serves d, for d = 0..P−1. Two parties are Alice (0) and Bob
/// (1), and Alice scans first (Algorithm 3's "Party B DOES: repeats step
/// 1 to 12"). Each party clusters only its own points: the peers' points
/// enter core-point tests through masked distances but are never added to
/// expansion seed lists — the structural property that keeps the peers'
/// records unlinkable and the reason the output can differ from
/// centralized DBSCAN on cross-party bridges (DESIGN.md §3.5, experiment
/// E4).
///
/// Each scan runs in two phases. The driver first decides every core flag:
///
///     |N_eps(p)| = |own neighbours| + Σ_j  count from party j.
///
/// In basic mode it sends one batched membership round (smc/membership.h)
/// per peer, holding every candidate point that peer can reach, and sums
/// the returned counts — the responder encrypts its coordinate matrix once
/// and permutes its comparison shares per query. Every reachable peer is
/// asked about every candidate; there is no early exit, since stopping
/// once the threshold is reached would reveal partial sums to the later
/// peers through the access pattern. In enhanced mode the per-candidate
/// §5 tests run in index order. Then the driver expands locally
/// (ExpandWithCoreFlags in dbscan/dbscan.h). Core status does not depend
/// on scan order, so the labels equal those of the paper's interleaved
/// scan.
///
/// Each pairwise link runs the unmodified two-party sub-protocols over its
/// own SMC session, so Theorem 9's disclosure bound applies per link and
/// the composition theorem (Theorem 6) covers the whole protocol. The
/// driver schedule, record counts per party, and DBSCAN parameters are
/// public; per-link traffic is counted separately (experiment E8 measures
/// the Σ_d l_d·(n−l_d) growth).
///
/// Two-party only (kInvalidArgument for P > 2):
/// - HorizontalMode::kEnhanced. The §5 test needs the k-th smallest
///   distance over the UNION of all peers' points, which requires
///   cross-peer secret sharing the paper does not define.
/// - options.cross_party_merge (E7 extension, off by default). The parties
///   additionally link clusters whose core points are within Eps of each
///   other, producing a shared cluster-id space at a documented extra
///   disclosure (core-pair adjacency).
///
/// `disclosures` (optional) records what this party LEARNS, once per
/// candidate point and reachable peer: "peer_neighbor_count" in basic mode
/// (Theorem 9), "peer_core_bit" in enhanced mode (Theorem 11);
/// "merge_links" if merging, and the plan round's "plan_peer_points" /
/// "plan_peer_box_coord" / "plan_peer_band" / "membership_count" under a
/// non-exact plan.
///
/// options.plan selects the clustering planner (core/plan.h). kExact runs
/// no plan round and tests every point against every peer. kPrune
/// exchanges bounding boxes with every peer first, asks each peer only
/// about the points within Eps of that peer's box (every other point
/// decides locally: its peer counts are provably zero, and the boxes are
/// public once disclosed), and serves each peer its own boundary band
/// toward that peer's box — labels stay byte-identical to exact mode.
/// kSieve scans the 1-in-k subset, assigns leftovers locally, and rescues
/// the remainder with one batched membership round per peer.
/// `plan_stats` (optional) receives the planner's counters, measured
/// across all links, including comparator invocations.
Result<PartyClusteringResult> RunHorizontalDbscan(
    const std::vector<Channel*>& links,
    const std::vector<const SmcSession*>& sessions, const Dataset& own_points,
    size_t index, size_t parties, const ProtocolOptions& options,
    SecureRng& rng, DisclosureLog* disclosures = nullptr,
    uint64_t* selection_comparisons = nullptr,
    PlanStats* plan_stats = nullptr);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_HORIZONTAL_H_
