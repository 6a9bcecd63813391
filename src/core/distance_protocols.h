#ifndef PPDBSCAN_CORE_DISTANCE_PROTOCOLS_H_
#define PPDBSCAN_CORE_DISTANCE_PROTOCOLS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/partitioners.h"
#include "dbscan/dataset.h"
#include "net/channel.h"
#include "smc/comparator.h"
#include "smc/session.h"

namespace ppdbscan {

/// HDP (§4.2), batched over all of the responder's points for one query
/// point. The responder sends E(y_kj) for every point k and coordinate j;
/// the driver plays the Helper of the Multiplication Protocol and returns
/// one rerandomized cipher E(x·y_k) per point (smc/inner_product.h), which
/// the responder decrypts; then one secure comparison per point. The
/// paper's zero-sum masks split x·y_k into per-coordinate shares that were
/// uniform given the sum, so folding them into the sum changes neither
/// party's view; it halves the Paillier work per pair.
///
/// The responder fresh-encrypts its coordinates for every query and (by
/// default) presents its points in a fresh random order — the permutation
/// step of Algorithm 4 that defeats the Figure 1 linkage attack.

/// Driver side: learns how many responder points lie within
/// sqrt(eps_squared) of `x`. If `bits` is non-null it receives the
/// per-point results in the responder's presentation order (only
/// meaningful when the responder disables permutation, as the E7 merge
/// phase does).
Result<size_t> HdpBatchDriver(Channel& channel, const SmcSession& session,
                              SecureComparator& comparator,
                              const std::vector<int64_t>& x,
                              int64_t eps_squared, SecureRng& rng,
                              std::vector<bool>* bits = nullptr);

/// Responder side. `subset` restricts participation to the given point
/// indices (default: all points); `permute` controls the Algorithm 4
/// shuffle. Learns x·y_k for each of its points y_k, as in the paper's HDP,
/// but not the comparison bits. With `dims` linearly independent points it
/// can therefore solve for the query point x; hiding x·y_k is an open
/// ROADMAP item.
Status HdpBatchResponder(Channel& channel, const SmcSession& session,
                         SecureComparator& comparator, const Dataset& own,
                         SecureRng& rng,
                         const std::vector<size_t>* subset = nullptr,
                         bool permute = true);

/// §4.4 arbitrary-partition pair distance: decomposes (x, y) into
/// same-owner attributes (local squared differences) and cross-owner
/// attributes (the Multiplication Protocol folded into one inner-product
/// cipher, exactly as in HDP: the responder learns Σ a_t·b_t over the
/// cross attributes), then one secure comparison against eps². The driver
/// is the Alice-side party and learns the bit.
Result<bool> ArbitraryPairDriver(Channel& channel, const SmcSession& session,
                                 SecureComparator& comparator,
                                 const ArbitraryPartyView& own, size_t xi,
                                 size_t yi, int64_t eps_squared,
                                 SecureRng& rng);

Status ArbitraryPairResponder(Channel& channel, const SmcSession& session,
                              SecureComparator& comparator,
                              const ArbitraryPartyView& own, size_t xi,
                              size_t yi, SecureRng& rng);

/// Shared helper: a uniformly random permutation of 0..n-1.
std::vector<size_t> RandomPermutation(SecureRng& rng, size_t n);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_DISTANCE_PROTOCOLS_H_
