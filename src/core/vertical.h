#ifndef PPDBSCAN_CORE_VERTICAL_H_
#define PPDBSCAN_CORE_VERTICAL_H_

#include "common/random.h"
#include "common/status.h"
#include "core/options.h"
#include "core/plan.h"
#include "dbscan/dataset.h"
#include "eval/leakage.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Privacy-preserving DBSCAN over vertically partitioned data —
/// Algorithms 5/6 of the paper. Each party holds all n records but only
/// its own attribute columns (`own_columns`); both end with the full
/// labelling (the prescribed output, since every record is split between
/// them).
///
/// Per record pair, each party computes its local partial squared distance
/// and protocol VDP reduces the Eps test to one secure comparison
/// (S_A + S_B <= Eps²). The run has two phases:
///
///  1. Bulk phase. Every unordered pair x < y is compared exactly once,
///     n(n−1)/2 comparisons in ⌈pairs/flight⌉ batched flights of
///     ComparatorOptions::max_batch_in_flight pairs (one flight when the
///     cap is 0). The driver (Alice by convention) learns each flight's
///     bits and forwards them, bit-packed, ahead of the next flight's
///     queries, so the forwarding costs no extra round.
///  2. Local phase. Both parties build the same symmetric adjacency
///     (self included) and run the unchanged JointDbscanScan over it.
///
/// Disclosure: the Alg. 5/6 scan region-queries every record at least
/// once, and each query announced its neighbour set to the peer, so the
/// peer always learned every neighbourhood. Forwarding the per-flight
/// result bits instead of per-query neighbour lists discloses the same
/// facts (Theorem 10's "number of points in the neighborhood" and the
/// sets behind it); only the transcript is regrouped. The local phase
/// records `neighborhood_size` on every region query, so that multiset is
/// unchanged.
///
/// With `vdp_local_pruning` (E9) each party first sends the packed
/// upper-triangle bitmap of pairs whose own partial already exceeds Eps²;
/// pairs in either bitmap are never compared. Each party records
/// `peer_pruned_count` once per row (the pairs of that record the peer's
/// bitmap removed).
///
/// `plan_stats`, when given, receives the measured comparison counts
/// (driver: encrypted_comparisons, with exact_comparisons = n(n−1)/2 so
/// SavedFraction() reports the pruning; peer: assisted_comparisons).
///
/// Output is bit-for-bit identical to centralized DBSCAN on the joined
/// records (tested in tests/vertical_test.cc).
Result<PartyClusteringResult> RunVerticalDbscan(
    Channel& channel, const SmcSession& session, const Dataset& own_columns,
    PartyRole role, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures = nullptr, PlanStats* plan_stats = nullptr);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_VERTICAL_H_
