#ifndef JOBBENCH_INPUTS_H_
#define JOBBENCH_INPUTS_H_

#include <cstddef>

#include "common/random.h"
#include "dbscan/dataset.h"

namespace jobbench {

/// Fixed-point scale every workload encodes its coordinates with.
inline constexpr double kEncoderScale = 16.0;

/// Gaussian blobs (stddev 0.5) plus uniform noise, encoded at
/// kEncoderScale, with stratified placement. The first coordinate of the
/// centers (and of the noise points) is spread evenly over a range
/// symmetric about 0, one jittered slot each; in every other dimension
/// half the centers (and half the noise points, rounded down) are
/// negative, in a random order, with magnitudes drawn at random.
///
/// Why stratified: the protocols' cost depends on the data's shape. A
/// negative plaintext scalar reduces mod n, so MulPlain exponentiates by a
/// full-width exponent instead of a few bits, and the prune planner's
/// encrypted work is the population near the band cuts of the first
/// coordinate. With unstratified draws a run's cost would swing with the
/// seed; stratified, every input carries the expected sign mix and a smooth
/// density along the first coordinate, so seeds vary the data without
/// varying the work much.
ppdbscan::Dataset MakeBalancedBlobs(ppdbscan::SecureRng& rng, size_t clusters,
                                    size_t per_cluster, size_t noise,
                                    size_t dims);

}  // namespace jobbench

#endif  // JOBBENCH_INPUTS_H_
