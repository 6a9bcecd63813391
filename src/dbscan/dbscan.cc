#include "dbscan/dbscan.h"

#include <deque>

#include "common/status.h"

namespace ppdbscan {

std::vector<size_t> LinearRegionQuerier::Query(size_t idx,
                                               int64_t eps_squared) const {
  std::vector<size_t> out;
  for (size_t j = 0; j < dataset_.size(); ++j) {
    if (dataset_.DistanceSquared(idx, j) <= eps_squared) out.push_back(j);
  }
  return out;
}

namespace {

/// The scan of Algorithms 5/6: ascending over the points, seeds in the
/// querier's order, a border point keeps the first cluster that claims it.
/// `is_core(idx, neighbourhood_size)` decides a point's core status each
/// time the scan reaches it.
template <typename IsCore>
DbscanResult Scan(const Dataset& dataset, int64_t eps_squared,
                  const RegionQuerier& rq, const IsCore& is_core) {
  DbscanResult result;
  result.labels.assign(dataset.size(), kUnclassified);
  result.is_core.assign(dataset.size(), false);
  int32_t cluster_id = 0;

  for (size_t i = 0; i < dataset.size(); ++i) {
    if (result.labels[i] != kUnclassified) continue;
    // ExpandCluster (Algorithm 6 structure).
    std::vector<size_t> seeds = rq.Query(i, eps_squared);
    if (!is_core(i, seeds.size())) {
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
      std::vector<size_t> neighbourhood = rq.Query(current, eps_squared);
      if (!is_core(current, neighbourhood.size())) continue;
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

}  // namespace

DbscanResult RunDbscan(const Dataset& dataset, const DbscanParams& params,
                       const RegionQuerier* querier) {
  LinearRegionQuerier linear(dataset);
  return Scan(dataset, params.eps_squared,
              querier != nullptr ? *querier : linear,
              [&params](size_t, size_t neighbourhood_size) {
                return neighbourhood_size >= params.min_pts;
              });
}

DbscanResult ExpandWithCoreFlags(const Dataset& dataset,
                                 const DbscanParams& params,
                                 const std::vector<bool>& core,
                                 const RegionQuerier* querier) {
  PPD_CHECK_MSG(core.size() == dataset.size(), "one core flag per point");
  LinearRegionQuerier linear(dataset);
  return Scan(dataset, params.eps_squared,
              querier != nullptr ? *querier : linear,
              [&core](size_t idx, size_t) { return core[idx]; });
}

}  // namespace ppdbscan
