#ifndef PPDBSCAN_EVAL_PLAN_EVAL_H_
#define PPDBSCAN_EVAL_PLAN_EVAL_H_

#include <vector>

#include "dbscan/dbscan.h"
#include "dbscan/dataset.h"

namespace ppdbscan {

/// Plaintext exact-semantics oracle for the horizontal protocol family:
/// computes, for ONE party, exactly the clustering the privacy-preserving
/// protocol (core/horizontal.h) would output in
/// PlanMode::kExact — the same scan order, the same core rule
/// |own N_eps| + Σ_peer |peer N_eps| >= MinPts, and the same
/// expansion-through-own-points-only restriction, with every encrypted
/// round replaced by a plaintext count.
///
/// This is the accuracy harness's reference: running the real exact
/// protocol at n = 4096 costs millions of Paillier operations, so the
/// planner benchmarks validate the simulator against the live protocol at
/// small n (plan_test) and then use it as the exact baseline at full
/// scale. Labels are byte-identical to the protocol's output, not merely
/// ARI-equivalent.
DbscanResult SimulateHorizontalParty(const Dataset& own,
                                     const std::vector<const Dataset*>& peers,
                                     const DbscanParams& params);

}  // namespace ppdbscan

#endif  // PPDBSCAN_EVAL_PLAN_EVAL_H_
