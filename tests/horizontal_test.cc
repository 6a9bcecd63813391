#include "core/horizontal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>

#include "bigint/codec.h"
#include "core/plan.h"
#include "core/run.h"
#include "core/wire.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "dbscan/dbscan.h"
#include "dbscan/grid_index.h"
#include "eval/metrics.h"
#include "eval/plan_eval.h"
#include "net/memory_channel.h"
#include "net/message.h"
#include "smc/membership.h"

namespace ppdbscan {
namespace {

Dataset MakePoints(const std::vector<std::vector<int64_t>>& points) {
  Dataset ds(points.empty() ? 1 : points[0].size());
  for (const auto& p : points) PPD_CHECK(ds.Add(p).ok());
  return ds;
}

/// Shared configuration of one two-party test run under the job facade.
struct FastConfig {
  SmcOptions smc;
  ProtocolOptions protocol;

  explicit FastConfig(int64_t eps_squared, size_t min_pts) {
    smc.paillier_bits = 256;
    smc.rsa_bits = 128;
    protocol.params = {eps_squared, min_pts};
    protocol.comparator.kind = ComparatorKind::kIdeal;
    protocol.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  }
};

/// Runs Alice's and Bob's horizontal jobs in-process through ExecuteLocal
/// and returns the per-party outcomes {alice, bob}.
Result<std::vector<RunOutcome>> RunHorizontal(const Dataset& alice,
                                              const Dataset& bob,
                                              const FastConfig& config) {
  return ExecuteLocal(
      {{ClusteringJob::Horizontal(alice, PartyRole::kAlice, config.protocol),
        0x0a11ce},
       {ClusteringJob::Horizontal(bob, PartyRole::kBob, config.protocol),
        0x0b0b}},
      config.smc);
}

/// Combines per-party labels back into the original record order, keeping
/// the two parties' cluster id spaces disjoint (unless merged).
Labels CombineLabels(const HorizontalPartition& hp,
                     const std::vector<RunOutcome>& outcome, bool merged) {
  size_t n = hp.alice_ids.size() + hp.bob_ids.size();
  Labels combined(n, kUnclassified);
  int32_t offset =
      merged ? 0 : static_cast<int32_t>(outcome[0].clustering.num_clusters);
  for (size_t i = 0; i < hp.alice_ids.size(); ++i) {
    combined[hp.alice_ids[i]] = outcome[0].clustering.labels[i];
  }
  for (size_t i = 0; i < hp.bob_ids.size(); ++i) {
    int32_t l = outcome[1].clustering.labels[i];
    combined[hp.bob_ids[i]] = l >= 0 ? l + offset : l;
  }
  return combined;
}

TEST(HorizontalTest, PartySeparatedClustersMatchCentralized) {
  // Each cluster is wholly owned by one party and dense on its own, so the
  // protocol's own-party-only expansion is not a limitation and the
  // combined output must match centralized DBSCAN exactly.
  Dataset alice = MakePoints({{0, 0}, {1, 0}, {0, 1}, {1, 1}});
  Dataset bob = MakePoints({{50, 50}, {51, 50}, {50, 51}, {51, 51}});
  FastConfig config(2, 3);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out)[0].clustering.num_clusters, 1u);
  EXPECT_EQ((*out)[1].clustering.num_clusters, 1u);
  for (int32_t l : (*out)[0].clustering.labels) EXPECT_EQ(l, 0);
  for (int32_t l : (*out)[1].clustering.labels) EXPECT_EQ(l, 0);
}

TEST(HorizontalTest, PeerDensityCountsTowardCoreStatus) {
  // Alice's lone point is core ONLY because Bob's points raise the count:
  // the protocol must include cross-party density (|seedsA| + |seedsB|).
  Dataset alice = MakePoints({{0, 0}});
  Dataset bob = MakePoints({{1, 0}, {0, 1}});
  FastConfig config(2, 3);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out)[0].clustering.labels[0], 0);  // clustered, not noise
  EXPECT_TRUE((*out)[0].clustering.is_core[0]);
}

TEST(HorizontalTest, WithoutPeerDensityPointIsNoise) {
  Dataset alice = MakePoints({{0, 0}});
  Dataset bob = MakePoints({{100, 100}, {101, 100}});
  FastConfig config(2, 3);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].clustering.labels[0], kNoise);
}

TEST(HorizontalTest, CrossPartyBridgeSplitsWithoutMerge) {
  // Two Alice blobs connected only through Bob's bridge points: the paper's
  // protocol (correctly) yields two Alice clusters, diverging from
  // centralized DBSCAN — the E4 behaviour.
  Dataset alice = MakePoints(
      {{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1}});
  Dataset bob = MakePoints(
      {{3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  FastConfig config(10, 2);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].clustering.num_clusters, 2u);
  EXPECT_NE((*out)[0].clustering.labels[0], (*out)[0].clustering.labels[3]);

  // Centralized DBSCAN on the union finds ONE cluster.
  Dataset all = MakePoints({{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1},
                            {3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  DbscanResult central = RunDbscan(all, {.eps_squared = 10, .min_pts = 2});
  EXPECT_EQ(central.num_clusters, 1u);
}

TEST(HorizontalTest, MergeExtensionReconnectsBridge) {
  Dataset alice = MakePoints(
      {{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1}});
  Dataset bob = MakePoints(
      {{3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  FastConfig config(10, 2);
  config.protocol.cross_party_merge = true;
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok()) << out.status();
  // After merging, both Alice blobs and Bob's bridge share one id space
  // with a single component.
  const PartyClusteringResult& a = (*out)[0].clustering;
  const PartyClusteringResult& b = (*out)[1].clustering;
  EXPECT_EQ(a.num_clusters, 1u);
  EXPECT_EQ(b.num_clusters, 1u);
  EXPECT_EQ(a.labels[0], a.labels[3]);
  EXPECT_EQ(a.labels[0], b.labels[0]);
  // The E7 extension's documented extra disclosure: the set of
  // cross-party cluster-adjacency links (2 here — each Alice blob touches
  // Bob's bridge), recorded once per party.
  ASSERT_EQ((*out)[0].disclosures.Count("merge_links"), 1u);
  EXPECT_EQ((*out)[0].disclosures.values("merge_links")[0], 2);
  EXPECT_EQ((*out)[1].disclosures.values("merge_links")[0], 2);
}

TEST(HorizontalTest, BasicAndEnhancedProduceIdenticalClusterings) {
  SecureRng rng(11);
  RawDataset raw = MakeBlobs(rng, 3, 10, 2, 0.5, 6.0);
  AddUniformNoise(raw, rng, 5, 8.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
  FastConfig config(*enc.EncodeEpsSquared(1.2), 4);

  Result<std::vector<RunOutcome>> basic = RunHorizontal(hp.alice, hp.bob,
                                                        config);
  ASSERT_TRUE(basic.ok()) << basic.status();
  config.protocol.mode = HorizontalMode::kEnhanced;
  Result<std::vector<RunOutcome>> enhanced = RunHorizontal(hp.alice, hp.bob,
                                                           config);
  ASSERT_TRUE(enhanced.ok()) << enhanced.status();
  EXPECT_EQ((*basic)[0].clustering.labels, (*enhanced)[0].clustering.labels);
  EXPECT_EQ((*basic)[1].clustering.labels, (*enhanced)[1].clustering.labels);
  EXPECT_EQ((*basic)[0].clustering.is_core,
            (*enhanced)[0].clustering.is_core);
}

TEST(HorizontalTest, CombinedLabelsVsCentralizedOnBridgeWorkload) {
  // E4/E7 in one picture: on a dumbbell whose bridge belongs entirely to
  // Bob, the combined distributed labels disagree with centralized DBSCAN
  // (the two Alice blobs split) unless the merge extension is enabled.
  Dataset alice = MakePoints(
      {{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1}});
  Dataset bob = MakePoints(
      {{3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  HorizontalPartition hp{alice, bob, {}, {}};
  for (size_t i = 0; i < alice.size(); ++i) hp.alice_ids.push_back(i);
  for (size_t i = 0; i < bob.size(); ++i) {
    hp.bob_ids.push_back(alice.size() + i);
  }
  Dataset all = MakePoints({{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1},
                            {3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  DbscanResult central = RunDbscan(all, {.eps_squared = 10, .min_pts = 2});

  FastConfig config(10, 2);
  Result<std::vector<RunOutcome>> split = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(split.ok());
  Labels split_combined = CombineLabels(hp, *split, /*merged=*/false);
  EXPECT_LT(AdjustedRandIndex(split_combined, central.labels), 1.0);

  config.protocol.cross_party_merge = true;
  Result<std::vector<RunOutcome>> merged = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(merged.ok());
  Labels merged_combined = CombineLabels(hp, *merged, /*merged=*/true);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(merged_combined, central.labels), 1.0);
}

TEST(HorizontalTest, DisclosureAccountingMatchesTheorem9) {
  // Basic mode: exactly one peer-neighbour-count disclosure per own point
  // (every point is core-tested exactly once).
  Dataset alice = MakePoints({{0, 0}, {1, 0}, {30, 30}});
  Dataset bob = MakePoints({{0, 1}, {40, 40}});
  FastConfig config(2, 2);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].disclosures.Count("peer_neighbor_count"), alice.size());
  EXPECT_EQ((*out)[1].disclosures.Count("peer_neighbor_count"), bob.size());
  EXPECT_EQ((*out)[0].disclosures.Count("peer_core_bit"), 0u);
}

TEST(HorizontalTest, EnhancedDisclosesOnlyBits) {
  Dataset alice = MakePoints({{0, 0}, {1, 0}, {30, 30}});
  Dataset bob = MakePoints({{0, 1}, {40, 40}});
  FastConfig config(2, 2);
  config.protocol.mode = HorizontalMode::kEnhanced;
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].disclosures.Count("peer_core_bit"), alice.size());
  EXPECT_EQ((*out)[0].disclosures.Count("peer_neighbor_count"), 0u);
  // A bit discloses at most 1 bit of entropy; a count can disclose more.
  EXPECT_LE((*out)[0].disclosures.EntropyBits("peer_core_bit"), 1.0);
}

TEST(HorizontalTest, DeterministicUnderSeeds) {
  SecureRng rng(12);
  RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
  FastConfig config(*enc.EncodeEpsSquared(1.0), 3);
  Result<std::vector<RunOutcome>> a = RunHorizontal(hp.alice, hp.bob, config);
  Result<std::vector<RunOutcome>> b = RunHorizontal(hp.alice, hp.bob, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)[0].clustering.labels, (*b)[0].clustering.labels);
  EXPECT_EQ((*a)[1].clustering.labels, (*b)[1].clustering.labels);
  EXPECT_EQ((*a)[0].stats.bytes_sent, (*b)[0].stats.bytes_sent);
}

TEST(HorizontalTest, BlindedComparatorMatchesIdeal) {
  SecureRng rng(13);
  RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
  FastConfig config(*enc.EncodeEpsSquared(1.0), 3);
  Result<std::vector<RunOutcome>> ideal = RunHorizontal(hp.alice, hp.bob,
                                                        config);
  config.protocol.comparator.kind = ComparatorKind::kBlindedPaillier;
  config.protocol.comparator.blinding_bits = 40;
  Result<std::vector<RunOutcome>> blinded = RunHorizontal(hp.alice, hp.bob,
                                                          config);
  ASSERT_TRUE(ideal.ok() && blinded.ok()) << blinded.status();
  EXPECT_EQ((*ideal)[0].clustering.labels, (*blinded)[0].clustering.labels);
  EXPECT_EQ((*ideal)[1].clustering.labels, (*blinded)[1].clustering.labels);
}

TEST(HorizontalTest, MinPtsOneIsolatesLonePoints) {
  Dataset alice = MakePoints({{0, 0}});
  Dataset bob = MakePoints({{100, 100}});
  FastConfig config(1, 1);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].clustering.labels[0], 0);
  EXPECT_EQ((*out)[1].clustering.labels[0], 0);
}

TEST(HorizontalTest, AllNoise) {
  Dataset alice = MakePoints({{0, 0}, {50, 0}});
  Dataset bob = MakePoints({{0, 50}, {50, 50}});
  FastConfig config(1, 3);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  for (int32_t l : (*out)[0].clustering.labels) EXPECT_EQ(l, kNoise);
  for (int32_t l : (*out)[1].clustering.labels) EXPECT_EQ(l, kNoise);
  EXPECT_EQ((*out)[0].clustering.num_clusters, 0u);
}

TEST(HorizontalTest, CommunicationIsSymmetricallyAccounted) {
  Dataset alice = MakePoints({{0, 0}, {1, 1}});
  Dataset bob = MakePoints({{2, 2}, {3, 3}});
  FastConfig config(4, 2);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].stats.bytes_sent, (*out)[1].stats.bytes_received);
  EXPECT_EQ((*out)[1].stats.bytes_sent, (*out)[0].stats.bytes_received);
  EXPECT_GT((*out)[0].stats.bytes_sent, 0u);
}

// --- Bulk core-flag scan ------------------------------------------------
// The driver decides every core flag first (one batched membership round
// in basic mode, one §5 test per candidate in enhanced mode), then expands
// locally. These cases pin the labels to the plaintext oracle, the
// disclosures to the plaintext per-candidate counts, the round count to a
// constant, and every malformed membership frame to a named kDataLoss.

/// Blobs centred in [-6, 6]² (so coordinates of both signs reach the
/// inverse path) plus uniform noise, split spatially so prune mode has
/// both interior and band points.
HorizontalPartition BulkFixture(uint64_t seed, size_t per_blob) {
  SecureRng rng(seed);
  RawDataset raw = MakeBlobs(rng, 3, per_blob, 2, 0.5, 6.0);
  AddUniformNoise(raw, rng, per_blob / 3 + 1, 9.0);
  FixedPointEncoder enc(4.0);
  return *PartitionHorizontalSpatial(*enc.Encode(raw), 0, 0.5);
}

constexpr int64_t kBulkEpsSquared = 23;  // Eps = 1.2 at scale 4
constexpr size_t kBulkMinPts = 4;

/// Plaintext |{peer points within Eps}| for each point of `own` in `ids`.
std::vector<int64_t> PeerCounts(const Dataset& own, const Dataset& peer,
                                const std::vector<size_t>& ids) {
  std::vector<int64_t> counts;
  for (size_t i : ids) {
    int64_t c = 0;
    for (size_t k = 0; k < peer.size(); ++k) {
      if (peer.DistanceSquaredTo(k, own.point(i)) <= kBulkEpsSquared) ++c;
    }
    counts.push_back(c);
  }
  std::sort(counts.begin(), counts.end());
  return counts;
}

std::vector<int64_t> SortedValues(const DisclosureLog& log,
                                  const std::string& category) {
  std::vector<int64_t> values = log.values(category);
  std::sort(values.begin(), values.end());
  return values;
}

TEST(HorizontalBulkScanTest, LabelsMatchSimulatorAcrossModes) {
  HorizontalPartition hp = BulkFixture(31, 10);
  const DbscanParams params{kBulkEpsSquared, kBulkMinPts};
  const DbscanResult sim[2] = {
      SimulateHorizontalParty(hp.alice, {&hp.bob}, params),
      SimulateHorizontalParty(hp.bob, {&hp.alice}, params)};
  for (PlanMode plan : {PlanMode::kExact, PlanMode::kPrune}) {
    for (HorizontalMode mode :
         {HorizontalMode::kBasic, HorizontalMode::kEnhanced}) {
      for (ComparatorKind cmp :
           {ComparatorKind::kIdeal, ComparatorKind::kBlindedPaillier}) {
        FastConfig config(kBulkEpsSquared, kBulkMinPts);
        config.protocol.plan.mode = plan;
        config.protocol.mode = mode;
        config.protocol.comparator.kind = cmp;
        config.protocol.comparator.blinding_bits = 40;
        Result<std::vector<RunOutcome>> out =
            RunHorizontal(hp.alice, hp.bob, config);
        ASSERT_TRUE(out.ok()) << out.status();
        for (size_t p = 0; p < 2; ++p) {
          SCOPED_TRACE(std::string(PlanModeToString(plan)) + " mode " +
                       std::to_string(static_cast<int>(mode)) + " cmp " +
                       std::to_string(static_cast<int>(cmp)) + " party " +
                       std::to_string(p));
          EXPECT_EQ((*out)[p].clustering.labels, sim[p].labels);
          EXPECT_EQ((*out)[p].clustering.is_core, sim[p].is_core);
          EXPECT_EQ((*out)[p].clustering.num_clusters, sim[p].num_clusters);
        }
      }
    }
  }
}

TEST(HorizontalBulkScanTest, DisclosesOnePlaintextCountPerCandidate) {
  HorizontalPartition hp = BulkFixture(32, 10);
  const Dataset* own[2] = {&hp.alice, &hp.bob};
  for (PlanMode plan : {PlanMode::kExact, PlanMode::kPrune}) {
    FastConfig config(kBulkEpsSquared, kBulkMinPts);
    config.protocol.plan.mode = plan;
    Result<std::vector<RunOutcome>> out =
        RunHorizontal(hp.alice, hp.bob, config);
    ASSERT_TRUE(out.ok()) << out.status();
    for (size_t p = 0; p < 2; ++p) {
      const Dataset& mine = *own[p];
      const Dataset& peer = *own[1 - p];
      // Exact: every own point is a candidate. Prune: the own points
      // within Eps of the peer's bounding box.
      std::vector<size_t> candidates;
      if (plan == PlanMode::kExact) {
        for (size_t i = 0; i < mine.size(); ++i) candidates.push_back(i);
      } else {
        candidates = GridRegionQuerier(mine, kBulkEpsSquared)
                         .PointsWithinEpsOfBox(ComputeBoundingBox(peer),
                                               kBulkEpsSquared);
        ASSERT_LT(candidates.size(), mine.size());
      }
      EXPECT_EQ(SortedValues((*out)[p].disclosures, "peer_neighbor_count"),
                PeerCounts(mine, peer, candidates))
          << PlanModeToString(plan) << " party " << p;
      EXPECT_EQ((*out)[p].plan.encrypted_comparisons,
                candidates.size() * (plan == PlanMode::kExact
                                         ? peer.size()
                                         : (*out)[1 - p].plan.candidate_points));
    }
  }
}

/// Runs `parts` as a horizontal job: the two-party job for two parts, one
/// kMultiparty job per part otherwise.
Result<std::vector<RunOutcome>> RunSplit(const std::vector<Dataset>& parts,
                                         const FastConfig& config) {
  if (parts.size() == 2) return RunHorizontal(parts[0], parts[1], config);
  std::vector<LocalJob> jobs;
  for (size_t i = 0; i < parts.size(); ++i) {
    jobs.push_back({ClusteringJob::Multiparty(parts[i], i, parts.size(),
                                              config.protocol),
                    0x0a11ce + i});
  }
  return ExecuteLocal(jobs, config.smc);
}

TEST(HorizontalBulkScanTest, BasicRoundsStayConstantAsPointsDouble) {
  // Each scan is one membership round per peer link whose comparisons
  // travel in comparator flights of max_batch_in_flight: with no cap the
  // round count is a constant; under the default cap of 256 it grows only
  // with the flight count, 2·⌈pairs/256⌉ per scan and link. Three parties
  // run the same scan over two links per party.
  for (size_t parties : {size_t{2}, size_t{3}}) {
    uint64_t unlimited[2] = {0, 0};
    const size_t per_blob[2] = {12, 24};  // n = 40 and n = 80 points
    for (size_t t = 0; t < 2; ++t) {
      SecureRng rng(33);
      RawDataset raw = MakeBlobs(rng, 3, per_blob[t], 2, 0.5, 6.0);
      AddUniformNoise(raw, rng, 4 * (t + 1), 9.0);
      FixedPointEncoder enc(4.0);
      Dataset full = *enc.Encode(raw);
      ASSERT_EQ(full.size(), 40u * (t + 1));
      std::vector<Dataset> parts;
      if (parties == 2) {
        HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
        parts = {hp.alice, hp.bob};
      } else {
        parts.assign(parties, Dataset(2));
        for (size_t i = 0; i < full.size(); ++i) {
          PPD_CHECK(parts[i % parties].Add(full.point(i)).ok());
        }
      }
      for (size_t flight : {size_t{0}, size_t{256}}) {
        FastConfig config(kBulkEpsSquared, kBulkMinPts);
        config.protocol.comparator.kind = ComparatorKind::kBlindedPaillier;
        config.protocol.comparator.blinding_bits = 40;
        config.protocol.comparator.max_batch_in_flight = flight;
        Result<std::vector<RunOutcome>> out = RunSplit(parts, config);
        ASSERT_TRUE(out.ok()) << out.status();
        const uint64_t rounds = (*out)[0].stats.rounds;
        if (flight == 0) {
          unlimited[t] = rounds;
          EXPECT_LE(rounds, 12u * (parties - 1))
              << "P=" << parties << " n=" << full.size();
        } else {
          uint64_t bound = 0;
          for (size_t j = 1; j < parties; ++j) {
            const uint64_t pairs = parts[0].size() * parts[j].size();
            bound += 8 + 4 * ((pairs + flight - 1) / flight);
          }
          EXPECT_LE(rounds, bound) << "P=" << parties << " n=" << full.size();
        }
      }
    }
    EXPECT_EQ(unlimited[1], unlimited[0]) << "P=" << parties;
  }
}

/// Runs the real horizontal scan under `options` (default: exact plan,
/// basic mode) as `role` over `points` against `script`, which plays the
/// other party on a raw MemoryChannel. The script's end is closed when it
/// returns, so a decoder that wrongly accepts a frame fails on the closed
/// channel instead of hanging.
using PartyScript =
    std::function<void(Channel&, const SmcSession&, SecureRng&)>;

Status RunAgainstScript(
    PartyRole role, const Dataset& points, const PartyScript& script,
    const ProtocolOptions& options = FastConfig(kBulkEpsSquared, 2).protocol) {
  FastConfig config(kBulkEpsSquared, 2);
  auto [real_ch, script_ch] = MemoryChannel::CreatePair();
  SecureRng real_rng(1), script_rng(2);
  Result<SmcSession> real_session = Status::Internal("unset");
  Result<SmcSession> script_session = Status::Internal("unset");
  {
    std::thread t([&] {
      script_session =
          SmcSession::Establish(*script_ch, script_rng, config.smc);
    });
    real_session = SmcSession::Establish(*real_ch, real_rng, config.smc);
    t.join();
  }
  PPD_CHECK(real_session.ok() && script_session.ok());

  const size_t index = role == PartyRole::kAlice ? 0 : 1;
  std::vector<Channel*> links(2, nullptr);
  std::vector<const SmcSession*> sessions(2, nullptr);
  links[1 - index] = real_ch.get();
  sessions[1 - index] = &*real_session;
  std::thread scripted([&] {
    script(*script_ch, *script_session, script_rng);
    script_ch->Close();
  });
  Result<PartyClusteringResult> result = RunHorizontalDbscan(
      links, sessions, points, index, 2, options, real_rng);
  real_ch->Close();
  scripted.join();
  return result.status();
}

/// Scripted responder: accepts the driver's membership query, then answers
/// with `ciphers` as its kMshCiphers frame. `ciphers` gets the script's own
/// Paillier modulus n, so tests can plant a non-invertible cipher.
PartyScript ResponderSending(
    std::function<ByteWriter(const BigInt& n)> ciphers) {
  return [ciphers](Channel& ch, const SmcSession& session, SecureRng&) {
    if (!ExpectMessage(ch, wire::kHzQueryMembership).ok()) return;
    if (!ExpectMessage(ch, kMshBegin).ok()) return;
    (void)SendMessage(ch, kMshCiphers,
                      ciphers(session.own_paillier_ctx().pub().n));
  };
}

/// Scripted driver: asks for one 2-D query against the real responder's
/// matrix, then sends `response(expected_ciphers)` as its kMshResponse
/// (one inner-product cipher per responder point).
PartyScript DriverResponding(
    std::function<std::vector<uint8_t>(size_t expected)> response) {
  return [response](Channel& ch, const SmcSession&, SecureRng&) {
    if (!SendMessage(ch, wire::kHzQueryMembership, std::vector<uint8_t>())
             .ok()) {
      return;
    }
    ByteWriter begin;
    begin.PutU32(1);
    begin.PutU32(2);
    if (!SendMessage(ch, kMshBegin, begin).ok()) return;
    Result<std::vector<uint8_t>> matrix = ExpectMessage(ch, kMshCiphers);
    if (!matrix.ok()) return;
    ByteReader reader(*matrix);
    Result<uint32_t> count = reader.GetU32();
    if (!count.ok()) return;
    (void)SendMessage(ch, kMshResponse, response(size_t{*count}));
  };
}

/// Writes `count` copies of the valid ciphertext 1 (E(0) with r = 1).
std::vector<uint8_t> UnitCiphers(size_t count) {
  ByteWriter out;
  for (size_t i = 0; i < count; ++i) WriteBigInt(out, BigInt(1));
  return out.data();
}

void ExpectDataLoss(const Status& status, const std::string& fragment) {
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.message().find(fragment), std::string::npos) << status;
}

const Dataset& MixedSignPoints() {
  static const Dataset points = MakePoints({{-3, 2}, {4, -5}, {1, 1}});
  return points;
}

TEST(HorizontalBulkScanTest, EmptyMatrixWithTrailingBytesIsDataLoss) {
  Status status = RunAgainstScript(
      PartyRole::kAlice, MixedSignPoints(),
      ResponderSending([](const BigInt&) {
        ByteWriter out;
        out.PutU32(0);
        out.PutU32(2);
        out.PutU8(0);
        return out;
      }));
  ExpectDataLoss(status, "trailing membership cipher bytes");
}

TEST(HorizontalBulkScanTest, WrongDimsIsDataLoss) {
  for (uint32_t count : {0u, 1u}) {
    Status status = RunAgainstScript(
        PartyRole::kAlice, MixedSignPoints(),
        ResponderSending([count](const BigInt&) {
          ByteWriter out;
          out.PutU32(count);
          out.PutU32(3);
          for (uint32_t i = 0; i < 3 * count; ++i) {
            WriteBigInt(out, BigInt(1));
          }
          return out;
        }));
    ExpectDataLoss(status, "dimension mismatch");
  }
}

TEST(HorizontalBulkScanTest, NonInvertibleCipherIsDataLoss) {
  // n is a multiple of both prime factors of n, so it has no inverse mod
  // n². In a negative column the driver's inversion rejects it; in an
  // all-positive column E(y)^k would reach 0, which is rejected too.
  const Dataset positive = MakePoints({{3, 2}, {4, 5}});
  for (const Dataset* points : {&MixedSignPoints(), &positive}) {
    Status status = RunAgainstScript(
        PartyRole::kAlice, *points, ResponderSending([](const BigInt& n) {
          ByteWriter out;
          out.PutU32(1);
          out.PutU32(2);
          WriteBigInt(out, n);
          WriteBigInt(out, n);
          return out;
        }));
    ExpectDataLoss(status, "membership cipher not invertible");
  }
}

TEST(HorizontalBulkScanTest, TruncatedResponseIsDataLoss) {
  // An empty frame fails the up-front size check; a last cipher cut short
  // fails while reading it.
  ExpectDataLoss(RunAgainstScript(PartyRole::kBob, MixedSignPoints(),
                                  DriverResponding([](size_t) {
                                    return UnitCiphers(0);
                                  })),
                 "membership response truncated");
  ExpectDataLoss(RunAgainstScript(PartyRole::kBob, MixedSignPoints(),
                                  DriverResponding([](size_t expected) {
                                    std::vector<uint8_t> frame =
                                        UnitCiphers(expected);
                                    frame.pop_back();
                                    return frame;
                                  })),
                 "membership response unreadable: truncated");
}

TEST(HorizontalBulkScanTest, PerCoordinateResponseIsDataLoss) {
  // The version-4 frame: one masked share per coordinate, Q·P·dims ciphers
  // where one inner-product cipher per pair is expected.
  Status status = RunAgainstScript(
      PartyRole::kBob, MixedSignPoints(),
      DriverResponding([](size_t expected) {
        return UnitCiphers(expected * 2);
      }));
  ExpectDataLoss(status, "trailing membership response bytes");
}

TEST(HorizontalBulkScanTest, OversizedResponseIsDataLoss) {
  Status status = RunAgainstScript(
      PartyRole::kBob, MixedSignPoints(),
      DriverResponding([](size_t expected) {
        return UnitCiphers(expected + 1);
      }));
  ExpectDataLoss(status, "trailing membership response bytes");
}

// --- E7 merge-phase decoder ---------------------------------------------
// The real party holds no points, so both scans are empty and the script
// reaches the merge phase at once. Counts a peer sends must be checked
// before anything is sized by them.

ProtocolOptions MergeOptions() {
  ProtocolOptions options = FastConfig(kBulkEpsSquared, 2).protocol;
  options.cross_party_merge = true;
  return options;
}

std::vector<uint8_t> MergeCores(uint32_t cores, uint32_t clusters) {
  ByteWriter out;
  out.PutU32(cores);
  out.PutU32(clusters);
  return out.data();
}

/// Scripted Bob: serves Alice's empty scan, runs its own, then answers
/// Alice's kMergeCores with `reply`.
PartyScript BobMergeReplying(std::vector<uint8_t> reply) {
  return [reply](Channel& ch, const SmcSession&, SecureRng&) {
    if (!ExpectMessage(ch, wire::kHzScanDone).ok()) return;
    if (!SendMessage(ch, wire::kHzScanDone, std::vector<uint8_t>()).ok()) {
      return;
    }
    if (!ExpectMessage(ch, wire::kMergeCores).ok()) return;
    (void)SendMessage(ch, wire::kMergeCores, reply);
  };
}

TEST(HorizontalMergeDecoderTest, CoreCountBeyondPayloadIsDataLoss) {
  // 2³²−1 cores with an empty body: rejected before the core list is
  // allocated.
  ExpectDataLoss(RunAgainstScript(PartyRole::kAlice, Dataset(2),
                                  BobMergeReplying(MergeCores(0xFFFFFFFF, 0)),
                                  MergeOptions()),
                 "merge core list truncated");
}

TEST(HorizontalMergeDecoderTest, MoreClustersThanCoresIsDataLoss) {
  // Every cluster is opened by a core; 2³²−1 clusters over 0 cores would
  // size the merge union-find. Alice's side:
  ExpectDataLoss(RunAgainstScript(PartyRole::kAlice, Dataset(2),
                                  BobMergeReplying(MergeCores(0, 0xFFFFFFFF)),
                                  MergeOptions()),
                 "merge cluster count exceeds core count");
  // Bob's side: a scripted Alice with an empty scan opens the merge.
  ExpectDataLoss(
      RunAgainstScript(
          PartyRole::kBob, Dataset(2),
          [](Channel& ch, const SmcSession&, SecureRng&) {
            if (!SendMessage(ch, wire::kHzScanDone, std::vector<uint8_t>())
                     .ok() ||
                !ExpectMessage(ch, wire::kHzScanDone).ok()) {
              return;
            }
            (void)SendMessage(ch, wire::kMergeCores,
                              MergeCores(0, 0xFFFFFFFF));
          },
          MergeOptions()),
      "merge cluster count exceeds core count");
}

}  // namespace
}  // namespace ppdbscan
