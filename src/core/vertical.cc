#include "core/vertical.h"

#include <string>
#include <utility>

#include "core/joint_scan.h"
#include "core/wire.h"
#include "net/message.h"
#include "smc/comparator.h"

namespace ppdbscan {

namespace {

/// Row-major position of the unordered pair {x, y}, x != y, in the packed
/// upper triangle of an n-record pair space.
size_t PairIndex(size_t n, size_t x, size_t y) {
  if (x > y) std::swap(x, y);
  return x * n - x * (x + 1) / 2 + (y - x - 1);
}

/// LSB-first bit packing; the unused high bits of the last byte are zero.
std::vector<uint8_t> PackBits(const std::vector<bool>& bits) {
  std::vector<uint8_t> out((bits.size() + 7) / 8, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out[i / 8] = static_cast<uint8_t>(out[i / 8] | 1u << (i % 8));
  }
  return out;
}

/// Inverse of PackBits for a frame that must carry exactly `count` bits:
/// any other length, or a set padding bit, is kDataLoss.
Result<std::vector<bool>> UnpackBits(const std::vector<uint8_t>& payload,
                                     size_t count, const char* what) {
  const size_t expected = (count + 7) / 8;
  if (payload.size() != expected) {
    return Status::DataLoss(std::string(what) + " frame carries " +
                            std::to_string(payload.size()) +
                            " bytes, expected " + std::to_string(expected));
  }
  if (count % 8 != 0 && (payload.back() >> (count % 8)) != 0) {
    return Status::DataLoss(std::string(what) +
                            " frame has nonzero padding bits");
  }
  std::vector<bool> bits(count);
  for (size_t i = 0; i < count; ++i) bits[i] = (payload[i / 8] >> (i % 8)) & 1;
  return bits;
}

/// Opening frames: kVtHello (u32 record count, u8 pruning flag), then the
/// E9 bitmap under kVtPrune when pruning. The flag makes a pruning
/// mismatch fail on the hello; without it the driver would wait for a
/// bitmap the peer never sends while the peer waits for the driver.
Status SendOpening(Channel& channel, size_t n, bool pruning,
                   const std::vector<bool>& own_pruned) {
  ByteWriter hello;
  hello.PutU32(static_cast<uint32_t>(n));
  hello.PutU8(pruning ? 1 : 0);
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtHello, hello));
  if (!pruning) return Status::Ok();
  return SendMessage(channel, wire::kVtPrune, PackBits(own_pruned));
}

/// Reads and checks the peer's opening; returns its E9 bitmap (empty
/// without pruning).
Result<std::vector<bool>> ReceiveOpening(Channel& channel, size_t n,
                                         bool pruning) {
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kVtHello));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t peer_n, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint8_t peer_pruning, reader.GetU8());
  if (!reader.Done()) {
    return Status::DataLoss("vertical hello has trailing bytes");
  }
  if (peer_n != n) {
    return Status::InvalidArgument(
        "parties disagree on the record count in vertical partitioning");
  }
  if (peer_pruning != (pruning ? 1 : 0)) {
    return Status::InvalidArgument(
        "parties disagree on vdp_local_pruning in vertical partitioning");
  }
  if (!pruning) return std::vector<bool>();
  PPD_ASSIGN_OR_RETURN(payload, ExpectMessage(channel, wire::kVtPrune));
  return UnpackBits(payload, n * (n - 1) / 2, "prune bitmap");
}

}  // namespace

Result<PartyClusteringResult> RunVerticalDbscan(
    Channel& channel, const SmcSession& session, const Dataset& own_columns,
    PartyRole role, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures, PlanStats* plan_stats) {
  PPD_ASSIGN_OR_RETURN(
      std::unique_ptr<SecureComparator> comparator,
      CreateComparator(options.comparator, session, rng));
  const size_t n = own_columns.size();
  const size_t pairs = n * (n - 1) / 2;
  const int64_t eps_squared = options.params.eps_squared;
  const bool is_driver = role == PartyRole::kAlice;
  const bool pruning = options.vdp_local_pruning;

  // E9: pairs whose own partial already exceeds Eps² (the total can only
  // be larger), in PairIndex order.
  std::vector<bool> own_pruned;
  if (pruning) {
    own_pruned.reserve(pairs);
    for (size_t x = 0; x < n; ++x) {
      for (size_t y = x + 1; y < n; ++y) {
        own_pruned.push_back(own_columns.DistanceSquared(x, y) > eps_squared);
      }
    }
  }

  // The peer opens, so the driver's first send can carry the first flight
  // of queries right behind its own opening (no round of its own).
  std::vector<bool> peer_pruned;
  if (is_driver) {
    PPD_ASSIGN_OR_RETURN(peer_pruned, ReceiveOpening(channel, n, pruning));
    PPD_RETURN_IF_ERROR(SendOpening(channel, n, pruning, own_pruned));
  } else {
    PPD_RETURN_IF_ERROR(SendOpening(channel, n, pruning, own_pruned));
    PPD_ASSIGN_OR_RETURN(peer_pruned, ReceiveOpening(channel, n, pruning));
  }
  if (pruning && disclosures != nullptr) {
    for (size_t x = 0; x < n; ++x) {
      int64_t row = 0;
      for (size_t y = 0; y < n; ++y) {
        if (y != x) row += peer_pruned[PairIndex(n, x, y)];
      }
      disclosures->Record("peer_pruned_count", row);
    }
  }

  // Bulk phase: every surviving pair once, in flights of at most
  // max_batch_in_flight pairs. Partials are generated per flight, so only
  // one flight of BigInts is alive at a time.
  const BigInt eps(eps_squared);
  const size_t cap = comparator->max_batch_in_flight() == 0
                         ? pairs
                         : comparator->max_batch_in_flight();
  std::vector<bool> linked(pairs, false);
  std::vector<size_t> flight;
  std::vector<BigInt> partials;
  uint64_t compared = 0;
  auto run_flight = [&]() -> Status {
    std::vector<bool> bits;
    if (is_driver) {
      PPD_ASSIGN_OR_RETURN(
          bits, comparator->QuerierCompareBatch(channel, partials, eps));
      PPD_RETURN_IF_ERROR(
          SendMessage(channel, wire::kVtResults, PackBits(bits)));
    } else {
      PPD_RETURN_IF_ERROR(comparator->PeerAssistBatch(channel, partials));
      PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           ExpectMessage(channel, wire::kVtResults));
      PPD_ASSIGN_OR_RETURN(bits,
                           UnpackBits(payload, flight.size(), "result bit"));
    }
    for (size_t k = 0; k < flight.size(); ++k) linked[flight[k]] = bits[k];
    compared += flight.size();
    flight.clear();
    partials.clear();
    return Status::Ok();
  };
  for (size_t x = 0, p = 0; x < n; ++x) {
    for (size_t y = x + 1; y < n; ++y, ++p) {
      if (pruning && (own_pruned[p] || peer_pruned[p])) continue;
      flight.push_back(p);
      partials.emplace_back(own_columns.DistanceSquared(x, y));
      if (flight.size() == cap) PPD_RETURN_IF_ERROR(run_flight());
    }
  }
  if (!flight.empty()) PPD_RETURN_IF_ERROR(run_flight());

  // Terminal handshake; the transcript ends here.
  if (is_driver) {
    PPD_RETURN_IF_ERROR(
        SendMessage(channel, wire::kVtDone, std::vector<uint8_t>()));
  } else {
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> done,
                         ExpectMessage(channel, wire::kVtDone));
    if (!done.empty()) return Status::DataLoss("vertical done frame not empty");
  }
  if (plan_stats != nullptr) {
    if (is_driver) {
      plan_stats->candidate_points = n;
      plan_stats->encrypted_comparisons = compared;
      plan_stats->exact_comparisons = pairs;
    } else {
      plan_stats->responder_points = n;
      plan_stats->assisted_comparisons = compared;
    }
  }

  // Local phase: the same lookup on both sides. The self pair is the
  // comparison 0 + 0 <= Eps².
  const bool self_linked = eps_squared >= 0;
  JointRegionQueryFn query = [&](size_t x) -> Result<std::vector<size_t>> {
    std::vector<size_t> neighbours;
    for (size_t y = 0; y < n; ++y) {
      if (y == x ? self_linked : linked[PairIndex(n, x, y)]) {
        neighbours.push_back(y);
      }
    }
    if (disclosures != nullptr) {
      disclosures->Record("neighborhood_size",
                          static_cast<int64_t>(neighbours.size()));
    }
    return neighbours;
  };
  return JointDbscanScan(n, options.params, query);
}

}  // namespace ppdbscan
