#ifndef PPDBSCAN_CORE_JOINT_SCAN_H_
#define PPDBSCAN_CORE_JOINT_SCAN_H_

#include <deque>
#include <functional>
#include <numeric>

#include "common/status.h"
#include "core/options.h"
#include "dbscan/dataset.h"

namespace ppdbscan {

/// Joint region query: neighbourhood of record `idx` over the virtual
/// database (indices into the shared record space).
using JointRegionQueryFn =
    std::function<Result<std::vector<size_t>>(size_t idx)>;

/// The Algorithm 5/6 scan over `n` shared records, parameterized by the
/// region query. BOTH parties run this function over the same
/// neighbourhoods, so both end with identical labels, which is exactly the
/// output §3.3 prescribes for records known to both parties. The vertical
/// protocol answers every query from an adjacency both parties built in
/// its bulk phase; the arbitrary protocol runs the scan in lockstep — the
/// driver's query executes the secure comparisons and announces the
/// resulting neighbour set, the peer's query assists and receives it.
inline Result<PartyClusteringResult> JointDbscanScan(
    size_t n, const DbscanParams& params, const JointRegionQueryFn& query) {
  PartyClusteringResult result;
  result.labels.assign(n, kUnclassified);
  result.is_core.assign(n, false);
  int32_t cluster_id = 0;

  for (size_t i = 0; i < n; ++i) {
    if (result.labels[i] != kUnclassified) continue;
    PPD_ASSIGN_OR_RETURN(std::vector<size_t> seeds, query(i));
    if (seeds.size() < params.min_pts) {
      result.labels[i] = kNoise;
      continue;
    }
    result.is_core[i] = true;
    std::deque<size_t> queue;
    for (size_t s : seeds) {
      result.labels[s] = cluster_id;
      if (s != i) queue.push_back(s);
    }
    while (!queue.empty()) {
      size_t current = queue.front();
      queue.pop_front();
      PPD_ASSIGN_OR_RETURN(std::vector<size_t> neighbourhood, query(current));
      if (neighbourhood.size() < params.min_pts) continue;
      result.is_core[current] = true;
      for (size_t q : neighbourhood) {
        if (result.labels[q] == kUnclassified || result.labels[q] == kNoise) {
          if (result.labels[q] == kUnclassified) queue.push_back(q);
          result.labels[q] = cluster_id;
        }
      }
    }
    ++cluster_id;
  }
  result.num_clusters = static_cast<size_t>(cluster_id);
  return result;
}

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_JOINT_SCAN_H_
