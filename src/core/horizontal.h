#ifndef PPDBSCAN_CORE_HORIZONTAL_H_
#define PPDBSCAN_CORE_HORIZONTAL_H_

#include "common/random.h"
#include "common/status.h"
#include "core/options.h"
#include "dbscan/dataset.h"
#include "eval/leakage.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Privacy-preserving DBSCAN over horizontally partitioned data —
/// Algorithms 3/4 (basic mode) and 7/8 (enhanced mode) of the paper.
///
/// Both parties call this function concurrently with their own points and
/// role. Alice scans first while Bob responds, then the roles swap
/// (Algorithm 3's "Party B DOES: repeats step 1 to 12"). Each party
/// clusters only its own points: the peer's points enter core-point tests
/// through HDP-style masked distances (basic) or the §5 share-selection
/// test (enhanced) but are
/// never added to expansion seed lists — the structural property that
/// keeps the peer's records unlinkable and the reason the output can
/// differ from centralized DBSCAN on cross-party bridges (DESIGN.md §3.5,
/// experiment E4).
///
/// Each scan runs in two phases. The driver first decides every core flag:
/// in basic mode one batched membership round (smc/membership.h) returns
/// the peer neighbour count of every candidate point at once — the
/// responder encrypts its coordinate matrix once and permutes its
/// comparison shares per query; in enhanced mode the per-candidate §5
/// tests run in index order. Then it expands locally (ExpandWithCoreFlags
/// in dbscan/dbscan.h). Core status does not depend on scan order, so the
/// labels equal those of the paper's interleaved scan.
///
/// With options.cross_party_merge (E7 extension, off by default) the
/// parties additionally link clusters whose core points are within Eps of
/// each other, producing a shared cluster-id space at a documented extra
/// disclosure (core-pair adjacency).
///
/// `disclosures` (optional) records what this party LEARNS, once per
/// candidate point: "peer_neighbor_count" in basic mode (Theorem 9),
/// "peer_core_bit" in enhanced mode (Theorem 11); "merge_links" if merging,
/// and the plan round's "plan_peer_points" / "plan_peer_box_coord" /
/// "plan_peer_band" / "membership_count" under a non-exact plan.
///
/// options.plan selects the clustering planner (core/plan.h). kExact runs
/// no plan round and tests every point. kPrune exchanges bounding boxes
/// first, then skips the encrypted core test for every point provably out
/// of the peer's reach and serves only its own boundary band — labels stay
/// byte-identical to exact mode. kSieve scans
/// the 1-in-k subset, assigns leftovers locally, and rescues the remainder
/// with one batched membership round. `plan_stats` (optional) receives the
/// planner's counters, including measured comparator invocations.
Result<PartyClusteringResult> RunHorizontalDbscan(
    Channel& channel, const SmcSession& session, const Dataset& own_points,
    PartyRole role, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures = nullptr,
    uint64_t* selection_comparisons = nullptr,
    PlanStats* plan_stats = nullptr);

/// Serves one peer's horizontal scan: answers kHzQueryBasic (the
/// multi-party scan's per-point HDP) / kHzQueryEnhanced /
/// kHzQueryMembership (the two-party bulk scan and the sieve rescue)
/// requests over this party's points
/// until the scanning peer sends kHzScanDone. `own` is whatever view the
/// plan exposes to this peer (the full dataset in exact mode, the boundary
/// band under kPrune, the sieved subset under kSieve). The building block
/// RunHorizontalDbscan uses for its responder half, exported for the
/// multi-party extension (core/multiparty.h) where a party serves several
/// scanning peers in turn.
Status ServeHorizontalScan(Channel& channel, const SmcSession& session,
                           SecureComparator& comparator, const Dataset& own,
                           const ProtocolOptions& options, SecureRng& rng);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_HORIZONTAL_H_
