#include "eval/plan_eval.h"

namespace ppdbscan {

DbscanResult SimulateHorizontalParty(const Dataset& own,
                                     const std::vector<const Dataset*>& peers,
                                     const DbscanParams& params) {
  // The linear querier, not the grid: the protocol expands in the linear
  // querier's ascending order, and border points adjacent to two clusters
  // keep whichever cluster reached them first — byte-identical labels
  // require identical traversal order.
  LinearRegionQuerier local(own);
  std::vector<bool> core(own.size());
  for (size_t i = 0; i < own.size(); ++i) {
    size_t total = local.Query(i, params.eps_squared).size();
    for (const Dataset* peer : peers) {
      for (size_t k = 0; k < peer->size(); ++k) {
        if (peer->DistanceSquaredTo(k, own.point(i)) <= params.eps_squared) {
          ++total;
        }
      }
    }
    core[i] = total >= params.min_pts;
  }
  return ExpandWithCoreFlags(own, params, core, &local);
}

}  // namespace ppdbscan
