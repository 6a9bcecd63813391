#ifndef PPDBSCAN_DBSCAN_DBSCAN_H_
#define PPDBSCAN_DBSCAN_DBSCAN_H_

#include <cstdint>
#include <vector>

#include "dbscan/dataset.h"

namespace ppdbscan {

/// Global density parameters of DBSCAN (Ester et al. 1996). Distances are
/// compared squared, so Eps is supplied squared; a point's
/// Eps-neighbourhood includes the point itself, and a point is a core
/// point when |N_Eps(p)| >= min_pts.
struct DbscanParams {
  int64_t eps_squared = 0;
  size_t min_pts = 1;
};

/// Abstract Eps-neighbourhood query, so the scan can swap the O(n) linear
/// probe for the uniform-grid index (bench M5 measures the difference).
class RegionQuerier {
 public:
  virtual ~RegionQuerier() = default;
  /// Indices of all points within sqrt(eps_squared) of point `idx`
  /// (including idx itself), in unspecified order.
  virtual std::vector<size_t> Query(size_t idx, int64_t eps_squared) const = 0;
};

/// Exhaustive O(n) region query.
class LinearRegionQuerier : public RegionQuerier {
 public:
  explicit LinearRegionQuerier(const Dataset& dataset) : dataset_(dataset) {}
  std::vector<size_t> Query(size_t idx, int64_t eps_squared) const override;

 private:
  const Dataset& dataset_;
};

struct DbscanResult {
  Labels labels;               // kNoise or cluster id per point
  std::vector<bool> is_core;   // core-point flags
  size_t num_clusters = 0;
};

/// Centralized (single-party) DBSCAN — the reference algorithm the paper
/// extends, with the exact control flow of its Algorithms 5/6. `querier`
/// defaults to the linear scan; pass a GridRegionQuerier for large inputs.
DbscanResult RunDbscan(const Dataset& dataset, const DbscanParams& params,
                       const RegionQuerier* querier = nullptr);

/// The expansion half of DBSCAN with the core predicate decided up front:
/// `core[i]` says whether point i is a core point. Runs RunDbscan's scan
/// (ascending, seeds in the querier's order, a border point keeps the
/// first cluster that claims it) with `core` in place of the neighbour
/// count. A point's core status does not depend on scan order, so the
/// labels equal those of a scan that tests each point when it reaches it
/// — which is what lets the protocols compute every core flag in bulk
/// first (core/horizontal.h) and then expand locally. `is_core` in the
/// result equals `core`.
DbscanResult ExpandWithCoreFlags(const Dataset& dataset,
                                 const DbscanParams& params,
                                 const std::vector<bool>& core,
                                 const RegionQuerier* querier = nullptr);

}  // namespace ppdbscan

#endif  // PPDBSCAN_DBSCAN_DBSCAN_H_
