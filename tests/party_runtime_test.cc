// Tests for the ClusteringJob/PartyRuntime facade (core/job.h): the
// cross-transport matrix (identical labels over MemoryChannel and real TCP
// for all three two-party schemes), the config-negotiation round
// (mismatched parties fail with a descriptive kFailedPrecondition on both
// sides, no hang), and SMC-session reuse across jobs on one connection.

#include "core/job.h"

#include <gtest/gtest.h>

#include <thread>

#include "core/run.h"
#include "core/wire.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"
#include "net/memory_channel.h"
#include "net/message.h"

namespace ppdbscan {
namespace {

/// One encoded blob workload shared by every test in this suite.
struct Workload {
  Dataset full{2};
  DbscanParams params;
};

Workload MakeWorkload() {
  SecureRng rng(2718);
  RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 5.0);
  AddUniformNoise(raw, rng, 3, 7.0);
  FixedPointEncoder enc(4.0);
  Workload w;
  w.full = *enc.Encode(raw);
  w.params = {*enc.EncodeEpsSquared(1.2), 3};
  return w;
}

SmcOptions FastSmc() {
  SmcOptions smc;
  smc.paillier_bits = 256;
  smc.rsa_bits = 128;
  return smc;
}

ProtocolOptions FastOptions(const DbscanParams& params) {
  ProtocolOptions options;
  options.params = params;
  options.comparator.kind = ComparatorKind::kIdeal;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  return options;
}

/// The two parties' jobs for one scheme over the shared workload.
std::vector<LocalJob> SchemeJobs(PartitionScheme scheme, const Workload& w,
                                 const ProtocolOptions& options) {
  SecureRng split_rng(5);
  switch (scheme) {
    case PartitionScheme::kHorizontal: {
      HorizontalPartition hp = *PartitionHorizontal(w.full, split_rng, 0.5);
      return {{ClusteringJob::Horizontal(hp.alice, PartyRole::kAlice,
                                         options),
               0xa1},
              {ClusteringJob::Horizontal(hp.bob, PartyRole::kBob, options),
               0xb1}};
    }
    case PartitionScheme::kVertical: {
      VerticalPartition vp = *PartitionVertical(w.full, 1);
      return {{ClusteringJob::Vertical(vp.alice, PartyRole::kAlice, options),
               0xa2},
              {ClusteringJob::Vertical(vp.bob, PartyRole::kBob, options),
               0xb2}};
    }
    default: {
      ArbitraryPartition ap = *PartitionArbitrary(w.full, split_rng, 0.5);
      return {{ClusteringJob::Arbitrary(ap.alice, PartyRole::kAlice, options),
               0xa3},
              {ClusteringJob::Arbitrary(ap.bob, PartyRole::kBob, options),
               0xb3}};
    }
  }
}

// --- Cross-transport matrix -------------------------------------------------

class CrossTransportTest
    : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(CrossTransportTest, SameJobSameLabelsOverMemoryAndTcp) {
  const PartitionScheme scheme = GetParam();
  Workload w = MakeWorkload();
  ProtocolOptions options = FastOptions(w.params);
  std::vector<LocalJob> jobs = SchemeJobs(scheme, w, options);

  Result<std::vector<RunOutcome>> memory =
      ExecuteLocal(jobs, FastSmc(), LocalTransport::kMemory);
  ASSERT_TRUE(memory.ok()) << memory.status();
  Result<std::vector<RunOutcome>> tcp =
      ExecuteLocal(jobs, FastSmc(), LocalTransport::kTcpLoopback);
  ASSERT_TRUE(tcp.ok()) << tcp.status();

  EXPECT_EQ((*memory)[0].clustering.labels, (*tcp)[0].clustering.labels);
  EXPECT_EQ((*memory)[1].clustering.labels, (*tcp)[1].clustering.labels);
  EXPECT_EQ((*memory)[0].clustering.is_core, (*tcp)[0].clustering.is_core);
  // The same protocol bytes cross either transport.
  EXPECT_EQ((*memory)[0].stats.bytes_sent, (*tcp)[0].stats.bytes_sent);
  EXPECT_EQ((*memory)[0].stats.frames_sent, (*tcp)[0].stats.frames_sent);
}

INSTANTIATE_TEST_SUITE_P(Schemes, CrossTransportTest,
                         ::testing::Values(PartitionScheme::kHorizontal,
                                           PartitionScheme::kVertical,
                                           PartitionScheme::kArbitrary),
                         [](const auto& info) {
                           return std::string(
                               PartitionSchemeToString(info.param));
                         });

// --- Negotiation ------------------------------------------------------------

/// Runs Alice with `alice_options` and Bob with `bob_options` over fresh
/// runtimes and returns both sides' statuses. Joining threads proves the
/// run terminates (no hang) whatever the verdict.
std::pair<Status, Status> RunWithOptions(const ProtocolOptions& alice_options,
                                         const ProtocolOptions& bob_options,
                                         PartyRole bob_role = PartyRole::kBob) {
  Workload w = MakeWorkload();
  SecureRng split_rng(5);
  HorizontalPartition hp = *PartitionHorizontal(w.full, split_rng, 0.5);
  ClusteringJob alice_job =
      ClusteringJob::Horizontal(hp.alice, PartyRole::kAlice, alice_options);
  ClusteringJob bob_job =
      ClusteringJob::Horizontal(hp.bob, bob_role, bob_options);

  auto [alice_channel, bob_channel] = MemoryChannel::CreatePair();
  Status alice_status, bob_status;
  auto party = [](Channel& channel, const ClusteringJob& job, uint64_t seed,
                  Status* out) {
    Result<PartyRuntime> runtime =
        PartyRuntime::Connect(channel, SecureRng(seed), FastSmc());
    if (!runtime.ok()) {
      *out = runtime.status();
    } else {
      Result<RunOutcome> outcome = runtime->Run(job);
      *out = outcome.ok() ? Status::Ok() : outcome.status();
    }
    channel.Close();
  };
  std::thread alice_thread(party, std::ref(*alice_channel),
                           std::cref(alice_job), 1, &alice_status);
  std::thread bob_thread(party, std::ref(*bob_channel), std::cref(bob_job), 2,
                         &bob_status);
  alice_thread.join();
  bob_thread.join();
  return {alice_status, bob_status};
}

void ExpectBothFail(const std::pair<Status, Status>& statuses,
                    const std::string& expected_substring) {
  for (const Status& status : {statuses.first, statuses.second}) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.message().find(expected_substring), std::string::npos)
        << status;
  }
}

TEST(NegotiationTest, MatchingOptionsSucceed) {
  Workload w = MakeWorkload();
  ProtocolOptions options = FastOptions(w.params);
  auto [alice, bob] = RunWithOptions(options, options);
  EXPECT_TRUE(alice.ok()) << alice;
  EXPECT_TRUE(bob.ok()) << bob;
}

TEST(NegotiationTest, EpsMismatchFailsBothSides) {
  Workload w = MakeWorkload();
  ProtocolOptions alice_options = FastOptions(w.params);
  ProtocolOptions bob_options = alice_options;
  bob_options.params.eps_squared += 1;
  ExpectBothFail(RunWithOptions(alice_options, bob_options), "Eps");
}

TEST(NegotiationTest, ModeMismatchFailsBothSides) {
  Workload w = MakeWorkload();
  ProtocolOptions alice_options = FastOptions(w.params);
  ProtocolOptions bob_options = alice_options;
  bob_options.mode = HorizontalMode::kEnhanced;
  ExpectBothFail(RunWithOptions(alice_options, bob_options), "mode");
}

TEST(NegotiationTest, ComparatorBoundMismatchFailsBothSides) {
  // The magnitude bound is covered by the options digest rather than a
  // clear field; the error must still be explicit on both sides.
  Workload w = MakeWorkload();
  ProtocolOptions alice_options = FastOptions(w.params);
  ProtocolOptions bob_options = alice_options;
  bob_options.comparator.magnitude_bound =
      alice_options.comparator.magnitude_bound + BigInt(2);
  ExpectBothFail(RunWithOptions(alice_options, bob_options), "digest");
}

TEST(NegotiationTest, BatchLimitMismatchFailsBothSides) {
  Workload w = MakeWorkload();
  ProtocolOptions alice_options = FastOptions(w.params);
  ProtocolOptions bob_options = alice_options;
  bob_options.comparator.max_batch_in_flight = 64;
  ExpectBothFail(RunWithOptions(alice_options, bob_options), "batch limit");
}

TEST(NegotiationTest, RoleCollisionFailsBothSides) {
  Workload w = MakeWorkload();
  ProtocolOptions options = FastOptions(w.params);
  auto statuses = RunWithOptions(options, options, PartyRole::kAlice);
  ExpectBothFail(statuses, "role collision");
}

TEST(NegotiationTest, VersionFourHelloFailsPrecondition) {
  // A peer built before the version-5 frames (one inner-product cipher per
  // pair, one blinded query per group) echoes our hello with version 4; one
  // built before version 6 (one membership round per peer in the
  // multi-party and sieve scans) echoes version 5.
  static_assert(kJobProtocolVersion == 6);
  Workload w = MakeWorkload();
  ClusteringJob job = ClusteringJob::Horizontal(w.full, PartyRole::kAlice,
                                                FastOptions(w.params));
  for (uint8_t old_version : {4, 5}) {
    auto [alice_channel, bob_channel] = MemoryChannel::CreatePair();
    std::thread script([&] {
      SecureRng rng(2);
      Result<SmcSession> session =
          SmcSession::Establish(*bob_channel, rng, FastSmc());
      Result<std::vector<uint8_t>> hello =
          session.ok() ? ExpectMessage(*bob_channel, wire::kJobHello)
                       : Result<std::vector<uint8_t>>(session.status());
      if (hello.ok() && hello->size() >= 2) {
        std::vector<uint8_t> old_hello = *hello;
        old_hello[0] = 0;
        old_hello[1] = old_version;
        (void)SendMessage(*bob_channel, wire::kJobHello, old_hello);
      }
      bob_channel->Close();
    });
    Result<PartyRuntime> runtime =
        PartyRuntime::Connect(*alice_channel, SecureRng(1), FastSmc());
    ASSERT_TRUE(runtime.ok()) << runtime.status();
    Result<RunOutcome> outcome = runtime->Run(job);
    alice_channel->Close();
    script.join();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition)
        << outcome.status();
    EXPECT_NE(outcome.status().message().find(
                  "version " + std::to_string(old_version)),
              std::string::npos)
        << outcome.status();
  }
}

TEST(NegotiationTest, DigestIsOrderStableAndFieldSensitive) {
  Workload w = MakeWorkload();
  ProtocolOptions a = FastOptions(w.params);
  ProtocolOptions b = FastOptions(w.params);
  EXPECT_EQ(ProtocolOptionsDigest(a), ProtocolOptionsDigest(b));
  b.comparator.blinding_bits += 1;
  EXPECT_NE(ProtocolOptionsDigest(a), ProtocolOptionsDigest(b));
  b = a;
  b.share_mask_bits = 9;
  EXPECT_NE(ProtocolOptionsDigest(a), ProtocolOptionsDigest(b));
}

// --- Session reuse ----------------------------------------------------------

TEST(SessionReuseTest, TwoJobsOneSessionMatchFreshRuns) {
  // One Connect (one key exchange), two Runs — a horizontal job, then a
  // vertical job on the SAME session. Each must produce exactly the labels
  // a fresh-session run produces.
  Workload w = MakeWorkload();
  ProtocolOptions options = FastOptions(w.params);
  SecureRng split_rng(5);
  HorizontalPartition hp = *PartitionHorizontal(w.full, split_rng, 0.5);
  VerticalPartition vp = *PartitionVertical(w.full, 1);

  struct PartyPlan {
    ClusteringJob first;
    ClusteringJob second;
  };
  PartyPlan alice_plan{
      ClusteringJob::Horizontal(hp.alice, PartyRole::kAlice, options),
      ClusteringJob::Vertical(vp.alice, PartyRole::kAlice, options)};
  PartyPlan bob_plan{
      ClusteringJob::Horizontal(hp.bob, PartyRole::kBob, options),
      ClusteringJob::Vertical(vp.bob, PartyRole::kBob, options)};

  auto [alice_channel, bob_channel] = MemoryChannel::CreatePair();
  struct PartyResult {
    Result<RunOutcome> first = Status::Internal("unset");
    Result<RunOutcome> second = Status::Internal("unset");
    uint64_t jobs_completed = 0;
  };
  PartyResult alice_result, bob_result;
  auto party = [](Channel& channel, const PartyPlan& plan, uint64_t seed,
                  PartyResult* out) {
    Result<PartyRuntime> runtime =
        PartyRuntime::Connect(channel, SecureRng(seed), FastSmc());
    PPD_CHECK_MSG(runtime.ok(), "runtime connect failed");
    out->first = runtime->Run(plan.first);
    out->second = runtime->Run(plan.second);
    out->jobs_completed = runtime->jobs_completed();
    channel.Close();
  };
  std::thread alice_thread(party, std::ref(*alice_channel),
                           std::cref(alice_plan), 11, &alice_result);
  std::thread bob_thread(party, std::ref(*bob_channel), std::cref(bob_plan),
                         12, &bob_result);
  alice_thread.join();
  bob_thread.join();

  ASSERT_TRUE(alice_result.first.ok()) << alice_result.first.status();
  ASSERT_TRUE(alice_result.second.ok()) << alice_result.second.status();
  ASSERT_TRUE(bob_result.first.ok()) << bob_result.first.status();
  ASSERT_TRUE(bob_result.second.ok()) << bob_result.second.status();
  EXPECT_EQ(alice_result.jobs_completed, 2u);
  EXPECT_EQ(bob_result.jobs_completed, 2u);

  // Fresh-session reference runs.
  Result<std::vector<RunOutcome>> fresh_horizontal = ExecuteLocal(
      {{alice_plan.first, 11}, {bob_plan.first, 12}}, FastSmc());
  ASSERT_TRUE(fresh_horizontal.ok()) << fresh_horizontal.status();
  Result<std::vector<RunOutcome>> fresh_vertical = ExecuteLocal(
      {{alice_plan.second, 11}, {bob_plan.second, 12}}, FastSmc());
  ASSERT_TRUE(fresh_vertical.ok()) << fresh_vertical.status();

  EXPECT_EQ(alice_result.first->clustering.labels,
            (*fresh_horizontal)[0].clustering.labels);
  EXPECT_EQ(bob_result.first->clustering.labels,
            (*fresh_horizontal)[1].clustering.labels);
  EXPECT_EQ(alice_result.second->clustering.labels,
            (*fresh_vertical)[0].clustering.labels);
  EXPECT_EQ(bob_result.second->clustering.labels,
            (*fresh_vertical)[1].clustering.labels);
  // Per-job stats are reset between runs, so the second job's counters do
  // not include the first job's traffic.
  EXPECT_EQ(alice_result.second->stats.bytes_sent,
            (*fresh_vertical)[0].stats.bytes_sent);
}

// --- Batch chunking ---------------------------------------------------------

TEST(BatchChunkingTest, ChunkedBatchesMatchUnchunkedResults) {
  // A tiny in-flight cap forces the batched comparator rounds to split
  // into many flights. The comparison RESULTS and the message count must
  // be unchanged — chunking moves frame order and regroups the peer's
  // blinding draws, but never adds, drops, or reshapes a message.
  Workload w = MakeWorkload();
  ProtocolOptions options = FastOptions(w.params);
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  std::vector<LocalJob> jobs =
      SchemeJobs(PartitionScheme::kHorizontal, w, options);

  Result<std::vector<RunOutcome>> unchunked = ExecuteLocal(jobs, FastSmc());
  ASSERT_TRUE(unchunked.ok()) << unchunked.status();

  options.comparator.max_batch_in_flight = 2;
  std::vector<LocalJob> chunked_jobs =
      SchemeJobs(PartitionScheme::kHorizontal, w, options);
  Result<std::vector<RunOutcome>> chunked =
      ExecuteLocal(chunked_jobs, FastSmc());
  ASSERT_TRUE(chunked.ok()) << chunked.status();

  EXPECT_EQ((*unchunked)[0].clustering.labels,
            (*chunked)[0].clustering.labels);
  EXPECT_EQ((*unchunked)[1].clustering.labels,
            (*chunked)[1].clustering.labels);
  EXPECT_EQ((*unchunked)[0].stats.frames_sent,
            (*chunked)[0].stats.frames_sent);
  EXPECT_EQ((*unchunked)[0].stats.frames_received,
            (*chunked)[0].stats.frames_received);
  // Ciphertext VALUES may differ (the peer's blinding stream regroups per
  // flight), but every message keeps its shape, so total traffic can only
  // drift by occasional shorter big-endian serializations.
  const int64_t drift =
      static_cast<int64_t>((*unchunked)[0].stats.bytes_sent) -
      static_cast<int64_t>((*chunked)[0].stats.bytes_sent);
  EXPECT_LE(drift < 0 ? -drift : drift, 64);
}

// --- Job validation ---------------------------------------------------------

TEST(PartyRuntimeTest, RejectsSchemeDataMismatch) {
  Workload w = MakeWorkload();
  ProtocolOptions options = FastOptions(w.params);
  ClusteringJob bad;
  bad.scheme = PartitionScheme::kArbitrary;
  bad.data = w.full;  // Dataset where an ArbitraryPartyView is required
  bad.options = options;

  auto [alice_channel, bob_channel] = MemoryChannel::CreatePair();
  std::thread bob_thread([&] {
    Result<PartyRuntime> bob_runtime =
        PartyRuntime::Connect(*bob_channel, SecureRng(2), FastSmc());
    PPD_CHECK(bob_runtime.ok());
    bob_channel->Close();
  });
  Result<PartyRuntime> runtime =
      PartyRuntime::Connect(*alice_channel, SecureRng(1), FastSmc());
  bob_thread.join();
  ASSERT_TRUE(runtime.ok()) << runtime.status();
  Result<RunOutcome> outcome = runtime->Run(bad);
  alice_channel->Close();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppdbscan
