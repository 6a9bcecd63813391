#ifndef PPDBSCAN_SMC_MEMBERSHIP_H_
#define PPDBSCAN_SMC_MEMBERSHIP_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/channel.h"
#include "smc/comparator.h"
#include "smc/session.h"

namespace ppdbscan {

/// Batched encrypted eps-membership round — the horizontal scan's core
/// test and the sieve planner's rescue primitive (core/plan.h). The driver
/// holds Q query points, the responder holds P points; the driver learns,
/// PER QUERY, how many responder points lie within sqrt(eps_squared), and
/// nothing else about their values. The responder learns Q and P, and for
/// each query x and each of its points y_k the inner product x·y_k — the
/// value the paper's HDP lets it recover too (the zero-sum masks cancel in
/// its sum). With `dims` independent points it can solve for x; hiding
/// x·y_k is an open ROADMAP item.
///
/// Cryptographically this is the paper's HDP (Multiplication Protocol +
/// one secure comparison per pair), restructured so the responder encrypts
/// its P × dims coordinate matrix ONCE and every query reuses the
/// ciphertexts — Paillier is semantically secure, so ciphertext reuse
/// toward the non-key-holder leaks nothing, and the encryption bill drops
/// from Q·P·dims to P·dims. The driver folds each pair's coordinates into
/// one rerandomized cipher E(x·y_k) (smc/inner_product.h), so the responder
/// decrypts Q·P values. Large batches are split into flights of at most
/// kMshMaxCiphersPerFlight products per message (both sides derive the same
/// split from the public sizes), keeping frames bounded. Each query's P
/// comparisons form one comparator group: the blinded backend sends one
/// query cipher per query and flight.
///
/// The driver inverts the responder's ciphers once (one batch inversion),
/// so a negative scalar costs a |k|-bit exponent rather than a full-width
/// one. A cipher that is not a unit mod n² is a hostile matrix and fails
/// kDataLoss.
///
/// Linkage: instead of HDP's fresh presentation permutation per query, the
/// responder applies a fresh permutation to its comparison SHARES per
/// query. The driver's per-pair bits therefore arrive in an order it
/// cannot map to stable responder points, so results cannot be correlated
/// across queries; only the per-query counts survive.
inline constexpr size_t kMshMaxCiphersPerFlight = size_t{1} << 14;

/// Wire tags. kMshBegin (driver → responder): u32 Q, u32 dims.
/// kMshCiphers (responder → driver): u32 P, u32 dims, then the P × dims
/// E(y) matrix. kMshResponse (driver → responder): one flight's
/// inner-product ciphers, Q_flight × P of them, query-major.
inline constexpr uint16_t kMshBegin = 0x0411;
inline constexpr uint16_t kMshCiphers = 0x0412;
inline constexpr uint16_t kMshResponse = 0x0413;

/// Driver side: returns counts[q] = |{k : dist(queries[q], point_k) <=
/// sqrt(eps_squared)}|. All queries must share one dimensionality (which
/// must match the responder's points — public job metadata).
Result<std::vector<size_t>> MembershipBatchDriver(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const std::vector<std::vector<int64_t>>& queries, int64_t eps_squared,
    SecureRng& rng);

/// Responder side: serves its `points` (the plan-subset view, NOT the full
/// dataset) until every query of the batch is answered.
Status MembershipBatchResponder(Channel& channel, const SmcSession& session,
                                SecureComparator& comparator,
                                const std::vector<std::vector<int64_t>>& points,
                                SecureRng& rng);

}  // namespace ppdbscan

#endif  // PPDBSCAN_SMC_MEMBERSHIP_H_
