#include "core/horizontal.h"

#include <memory>
#include <optional>
#include <set>

#include "core/distance_protocols.h"
#include "core/enhanced.h"
#include "core/plan.h"
#include "core/wire.h"
#include "dbscan/dbscan.h"
#include "dbscan/grid_index.h"
#include "net/message.h"
#include "smc/membership.h"

namespace ppdbscan {

namespace {

/// One pairwise link of the scan, from this party's side.
struct PeerLink {
  Channel* channel = nullptr;
  const SmcSession* session = nullptr;
  std::unique_ptr<SecureComparator> comparator;
  /// Prune plan: the peer's disclosed bounding box. Unset (exact and sieve
  /// plans): the peer may hold neighbours of any point.
  std::optional<BoundingBox> box;
  /// What this party exposes when serving the peer's scan: the band toward
  /// the peer's box (prune) or the sieved subset (sieve). Unset: the full
  /// dataset.
  std::optional<Dataset> view;

  /// Whether the peer can hold points within Eps of `point`. Outside the
  /// box the peer's count is provably zero, and the box is public, so
  /// skipping the peer leaks nothing it could not compute itself.
  bool Reaches(const std::vector<int64_t>& point, int64_t eps_squared) const {
    return !box || DistanceSquaredToBox(point, *box) <= eps_squared;
  }
};

PartyClusteringResult ToPartyResult(DbscanResult scan) {
  PartyClusteringResult result;
  result.labels = std::move(scan.labels);
  result.is_core = std::move(scan.is_core);
  result.num_clusters = scan.num_clusters;
  return result;
}

/// One §5 enhanced core test (Algorithm 7/8) for a point whose peer
/// deficit is `k_star`: the driver learns only whether the peer holds at
/// least k_star points within Eps.
Result<bool> EnhancedCoreTest(PeerLink& peer, const std::vector<int64_t>& point,
                              int64_t k_star, const ProtocolOptions& options,
                              SecureRng& rng, DisclosureLog* disclosures,
                              uint64_t* selection_comparisons) {
  PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kHzQueryEnhanced,
                                  std::vector<uint8_t>()));
  uint64_t comparisons = 0;
  PPD_ASSIGN_OR_RETURN(
      bool core,
      EnhancedCoreTestDriver(*peer.channel, *peer.session, *peer.comparator,
                             point, k_star, options.params.eps_squared,
                             options.selection, options.share_mask_bits, rng,
                             &comparisons));
  if (selection_comparisons != nullptr) *selection_comparisons += comparisons;
  if (disclosures != nullptr) {
    disclosures->Record("peer_core_bit", core ? 1 : 0);
  }
  return core;
}

/// Per point, the number of peer points within Eps, summed over peers:
/// one membership round per peer (smc/membership.h) over the points that
/// peer reaches. Each peer's count per point is recorded under `category`.
Result<std::vector<size_t>> SumPeerCounts(
    std::vector<PeerLink>& peers,
    const std::vector<std::vector<int64_t>>& points, const char* category,
    const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures) {
  const int64_t eps2 = options.params.eps_squared;
  std::vector<size_t> totals(points.size(), 0);
  for (PeerLink& peer : peers) {
    std::vector<size_t> asked;
    std::vector<std::vector<int64_t>> batch;
    for (size_t t = 0; t < points.size(); ++t) {
      if (!peer.Reaches(points[t], eps2)) continue;
      asked.push_back(t);
      batch.push_back(points[t]);
    }
    if (batch.empty()) continue;
    PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kHzQueryMembership,
                                    std::vector<uint8_t>()));
    PPD_ASSIGN_OR_RETURN(
        std::vector<size_t> counts,
        MembershipBatchDriver(*peer.channel, *peer.session, *peer.comparator,
                              batch, eps2, rng));
    for (size_t a = 0; a < asked.size(); ++a) {
      if (disclosures != nullptr) {
        disclosures->Record(category, static_cast<int64_t>(counts[a]));
      }
      totals[asked[a]] += counts[a];
    }
  }
  return totals;
}

/// Phase 1 of a scan: the core flag of each of `points`, whose neighbour
/// count over this party's own data is own_counts[t]. Peer counts are
/// multiplied by `scale` (the sieve stride; 1 otherwise). A point no peer
/// reaches decides locally. Basic mode sums one membership round per peer;
/// enhanced mode (one peer) runs one §5 test per reachable point, asking
/// whether own + scale·peer >= MinPts, i.e. peer >= ⌈(MinPts − own)/scale⌉.
Result<std::vector<bool>> DecideCoreFlags(
    std::vector<PeerLink>& peers,
    const std::vector<std::vector<int64_t>>& points,
    const std::vector<size_t>& own_counts, uint32_t scale,
    const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures, uint64_t* selection_comparisons) {
  const size_t min_pts = options.params.min_pts;
  std::vector<bool> core(points.size());
  if (options.mode == HorizontalMode::kBasic) {
    PPD_ASSIGN_OR_RETURN(std::vector<size_t> peer_counts,
                         SumPeerCounts(peers, points, "peer_neighbor_count",
                                       options, rng, disclosures));
    for (size_t t = 0; t < points.size(); ++t) {
      core[t] = own_counts[t] + size_t{scale} * peer_counts[t] >= min_pts;
    }
    return core;
  }
  PeerLink& peer = peers.front();
  for (size_t t = 0; t < points.size(); ++t) {
    if (!peer.Reaches(points[t], options.params.eps_squared)) {
      core[t] = own_counts[t] >= min_pts;
      continue;
    }
    const int64_t deficit = static_cast<int64_t>(min_pts) -
                            static_cast<int64_t>(own_counts[t]);
    const int64_t k_star =
        deficit > 0 ? (deficit + scale - 1) / static_cast<int64_t>(scale)
                    : deficit;
    PPD_ASSIGN_OR_RETURN(
        bool is_core, EnhancedCoreTest(peer, points[t], k_star, options, rng,
                                       disclosures, selection_comparisons));
    core[t] = is_core;
  }
  return core;
}

/// This party's scan over its own points: phase 1 decides the core flags
/// (of every point, or of the sieved subset through the sieve engine in
/// core/plan.h), phase 2 expands locally. Ends with kHzScanDone to every
/// peer.
Result<PartyClusteringResult> DriverScan(std::vector<PeerLink>& peers,
                                         const Dataset& own,
                                         const ProtocolOptions& options,
                                         SecureRng& rng,
                                         DisclosureLog* disclosures,
                                         uint64_t* selection_comparisons,
                                         PlanStats* stats) {
  const DbscanParams& params = options.params;
  DbscanResult scan;
  if (options.plan.mode == PlanMode::kSieve) {
    const uint32_t k = options.plan.sieve_k;
    SievePeerHooks hooks;
    hooks.core_test = [&](const std::vector<std::vector<int64_t>>& points,
                          const std::vector<size_t>& own_full) {
      return DecideCoreFlags(peers, points, own_full, k, options, rng,
                             disclosures, selection_comparisons);
    };
    hooks.membership = [&](const std::vector<std::vector<int64_t>>& queries) {
      return SumPeerCounts(peers, queries, "membership_count", options, rng,
                           disclosures);
    };
    PPD_ASSIGN_OR_RETURN(scan, RunSievePlan(own, params, k, hooks, stats));
  } else {
    LinearRegionQuerier local(own);
    std::vector<std::vector<int64_t>> points;
    std::vector<size_t> own_counts;
    points.reserve(own.size());
    own_counts.reserve(own.size());
    for (size_t i = 0; i < own.size(); ++i) {
      points.push_back(own.point(i));
      own_counts.push_back(local.Query(i, params.eps_squared).size());
    }
    PPD_ASSIGN_OR_RETURN(
        std::vector<bool> core,
        DecideCoreFlags(peers, points, own_counts, 1, options, rng,
                        disclosures, selection_comparisons));
    scan = ExpandWithCoreFlags(own, params, core, &local);
  }
  for (PeerLink& peer : peers) {
    PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kHzScanDone,
                                    std::vector<uint8_t>()));
  }
  return ToPartyResult(std::move(scan));
}

/// Serves one peer's scan over this party's view for that peer until the
/// peer sends kHzScanDone.
Status ResponderLoop(PeerLink& peer, const Dataset& own,
                     const ProtocolOptions& options, SecureRng& rng) {
  const Dataset& view = peer.view ? *peer.view : own;
  while (true) {
    PPD_ASSIGN_OR_RETURN(Message msg, RecvMessage(*peer.channel));
    switch (msg.type) {
      case wire::kHzQueryEnhanced:
        PPD_RETURN_IF_ERROR(EnhancedCoreTestResponder(
            *peer.channel, *peer.session, *peer.comparator, view,
            options.share_mask_bits, rng));
        break;
      case wire::kHzQueryMembership: {
        std::vector<std::vector<int64_t>> points;
        points.reserve(view.size());
        for (size_t i = 0; i < view.size(); ++i) points.push_back(view.point(i));
        PPD_RETURN_IF_ERROR(MembershipBatchResponder(
            *peer.channel, *peer.session, *peer.comparator, points, rng));
        break;
      }
      case wire::kHzScanDone:
        return Status::Ok();
      case kAbortMessageType:
        return AbortedFromPayload(msg.payload);
      default:
        return Status::DataLoss("unexpected message in responder loop");
    }
  }
}

/// The plan round of a non-exact plan. Every party sends kPlanBounds (mode
/// byte, record count, bounding box — empty under kSieve) to every peer,
/// then reads every peer's; under kPrune the same happens with kPlanBands
/// (the size of the band served to that peer). Sending everything before
/// reading is deadlock-free however the other parties order their links.
/// Sets each link's box (prune) and view; everything received is
/// deliberate plaintext disclosure, mirrored into the DisclosureLog.
Status NegotiatePlan(std::vector<PeerLink>& peers, const Dataset& own,
                     const ProtocolOptions& options,
                     DisclosureLog* disclosures, PlanStats* stats) {
  const PlanMode mode = options.plan.mode;
  const int64_t eps2 = options.params.eps_squared;

  ByteWriter bounds;
  bounds.PutU8(static_cast<uint8_t>(mode));
  bounds.PutU32(static_cast<uint32_t>(own.size()));
  BoundingBox own_box;
  if (mode == PlanMode::kPrune) own_box = ComputeBoundingBox(own);
  WriteBoundingBox(bounds, own_box);
  for (PeerLink& peer : peers) {
    PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kPlanBounds, bounds));
  }
  std::vector<uint32_t> peer_counts;
  for (PeerLink& peer : peers) {
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(*peer.channel, wire::kPlanBounds));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint8_t peer_mode, reader.GetU8());
    if (peer_mode != static_cast<uint8_t>(mode)) {
      return Status::DataLoss("plan mode mismatch in plan round");
    }
    PPD_ASSIGN_OR_RETURN(uint32_t peer_count, reader.GetU32());
    PPD_ASSIGN_OR_RETURN(BoundingBox peer_box,
                         ReadBoundingBox(reader, own.dims()));
    if (!reader.Done()) return Status::DataLoss("trailing plan round bytes");
    peer_counts.push_back(peer_count);
    if (disclosures != nullptr) {
      disclosures->Record("plan_peer_points", static_cast<int64_t>(peer_count));
      for (size_t t = 0; t < peer_box.dims(); ++t) {
        disclosures->Record("plan_peer_box_coord", peer_box.lo[t]);
        disclosures->Record("plan_peer_box_coord", peer_box.hi[t]);
      }
    }
    if (stats != nullptr) stats->peer_points += peer_count;
    if (mode == PlanMode::kPrune) peer.box = std::move(peer_box);
  }

  if (mode == PlanMode::kSieve) {
    // The subset is fully determined by the public (n, k).
    const std::vector<size_t> sieved =
        SievedIndices(own.size(), options.plan.sieve_k);
    for (size_t j = 0; j < peers.size(); ++j) {
      peers[j].view = SubsetDataset(own, sieved);
      if (stats != nullptr) {
        stats->responder_points += sieved.size();
        stats->predicted_comparisons +=
            static_cast<uint64_t>(sieved.size()) *
            SievedCount(peer_counts[j], options.plan.sieve_k);
      }
    }
    if (stats != nullptr) stats->candidate_points = sieved.size();
  } else {
    GridRegionQuerier grid(own, eps2);
    std::vector<bool> candidate(own.size(), false);
    for (PeerLink& peer : peers) {
      const std::vector<size_t> band =
          grid.PointsWithinEpsOfBox(*peer.box, eps2);
      for (size_t i : band) candidate[i] = true;
      peer.view = SubsetDataset(own, band);
      ByteWriter bands;
      bands.PutU32(static_cast<uint32_t>(band.size()));
      PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kPlanBands, bands));
    }
    for (PeerLink& peer : peers) {
      PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           ExpectMessage(*peer.channel, wire::kPlanBands));
      ByteReader reader(payload);
      PPD_ASSIGN_OR_RETURN(uint32_t peer_band, reader.GetU32());
      if (!reader.Done()) return Status::DataLoss("trailing plan band bytes");
      if (disclosures != nullptr) {
        disclosures->Record("plan_peer_band", static_cast<int64_t>(peer_band));
      }
      if (stats != nullptr) {
        // Each own point within Eps of the peer's box queries the peer
        // once in basic mode, against the peer's band toward us.
        stats->responder_points += peer.view->size();
        stats->predicted_comparisons +=
            static_cast<uint64_t>(peer.view->size()) * peer_band;
      }
    }
    if (stats != nullptr) {
      uint64_t candidates = 0;
      for (bool c : candidate) candidates += c ? 1 : 0;
      stats->candidate_points = candidates;
      stats->interior_points = own.size() - candidates;
    }
  }
  if (stats != nullptr) {
    stats->exact_comparisons =
        static_cast<uint64_t>(own.size()) * stats->peer_points;
  }
  return Status::Ok();
}

/// Disjoint-set union for the merge relabeling.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// Applies the merge edges to this party's labels. Both parties run this
/// with identical inputs, producing an identical shared id space: Alice's
/// clusters are nodes [0, num_alice), Bob's are [num_alice, num_alice +
/// num_bob); components are numbered by first appearance.
void RelabelAfterMerge(size_t num_alice, size_t num_bob,
                       const std::set<std::pair<uint32_t, uint32_t>>& edges,
                       bool is_alice, PartyClusteringResult* result) {
  UnionFind dsu(num_alice + num_bob);
  for (const auto& [a, b] : edges) dsu.Union(a, num_alice + b);
  std::vector<int32_t> component(num_alice + num_bob, -1);
  int32_t next = 0;
  for (size_t node = 0; node < num_alice + num_bob; ++node) {
    size_t root = dsu.Find(node);
    if (component[root] < 0) component[root] = next++;
    component[node] = component[root];
  }
  size_t offset = is_alice ? 0 : num_alice;
  for (int32_t& label : result->labels) {
    if (label >= 0) label = component[offset + static_cast<size_t>(label)];
  }
  result->num_clusters = static_cast<size_t>(next);
}

/// Reads the peer's core and cluster counts from a kMergeCores frame.
/// Every cluster is opened by a core, so more clusters than cores is
/// malformed; the check bounds what RelabelAfterMerge allocates.
Status ReadMergeCounts(ByteReader& reader, uint32_t* cores,
                       uint32_t* clusters) {
  PPD_ASSIGN_OR_RETURN(*cores, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(*clusters, reader.GetU32());
  if (*clusters > *cores) {
    return Status::DataLoss("merge cluster count exceeds core count");
  }
  return Status::Ok();
}

/// E7 extension: cross-party cluster linking via core-core adjacency.
Status MergePhase(PeerLink& peer, const Dataset& own, PartyRole role,
                  const ProtocolOptions& options, SecureRng& rng,
                  DisclosureLog* disclosures, PartyClusteringResult* result) {
  Channel& channel = *peer.channel;
  std::vector<size_t> cores;
  for (size_t i = 0; i < own.size(); ++i) {
    if (result->is_core[i]) cores.push_back(i);
  }

  if (role == PartyRole::kAlice) {
    ByteWriter hello;
    hello.PutU32(static_cast<uint32_t>(cores.size()));
    hello.PutU32(static_cast<uint32_t>(result->num_clusters));
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kMergeCores, hello));

    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kMergeCores));
    ByteReader reader(payload);
    uint32_t bob_cores = 0;
    uint32_t bob_clusters = 0;
    PPD_RETURN_IF_ERROR(ReadMergeCounts(reader, &bob_cores, &bob_clusters));
    if (uint64_t{bob_cores} * 4 > reader.remaining()) {
      return Status::DataLoss("merge core list truncated");
    }
    std::vector<uint32_t> bob_core_cluster(bob_cores);
    for (uint32_t k = 0; k < bob_cores; ++k) {
      PPD_ASSIGN_OR_RETURN(bob_core_cluster[k], reader.GetU32());
      if (bob_core_cluster[k] >= bob_clusters) {
        return Status::DataLoss("merge cluster id out of range");
      }
    }

    std::set<std::pair<uint32_t, uint32_t>> edges;
    for (size_t a : cores) {
      std::vector<bool> bits;
      PPD_ASSIGN_OR_RETURN(
          size_t hits,
          HdpBatchDriver(channel, *peer.session, *peer.comparator,
                         own.point(a), options.params.eps_squared, rng,
                         &bits));
      (void)hits;
      for (size_t k = 0; k < bits.size(); ++k) {
        if (bits[k]) {
          edges.emplace(static_cast<uint32_t>(result->labels[a]),
                        bob_core_cluster[k]);
        }
      }
    }
    ByteWriter links;
    links.PutU32(static_cast<uint32_t>(edges.size()));
    for (const auto& [a, b] : edges) {
      links.PutU32(a);
      links.PutU32(b);
    }
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kMergeLinks, links));
    if (disclosures != nullptr) {
      disclosures->Record("merge_links", static_cast<int64_t>(edges.size()));
    }
    RelabelAfterMerge(result->num_clusters, bob_clusters, edges,
                      /*is_alice=*/true, result);
    return Status::Ok();
  }

  // Bob side.
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kMergeCores));
  ByteReader reader(payload);
  uint32_t alice_cores = 0;
  uint32_t alice_clusters = 0;
  PPD_RETURN_IF_ERROR(ReadMergeCounts(reader, &alice_cores, &alice_clusters));

  ByteWriter hello;
  hello.PutU32(static_cast<uint32_t>(cores.size()));
  hello.PutU32(static_cast<uint32_t>(result->num_clusters));
  for (size_t c : cores) {
    hello.PutU32(static_cast<uint32_t>(result->labels[c]));
  }
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kMergeCores, hello));

  // The merge phase intentionally presents cores unpermuted: linking
  // requires the driver to know which (anonymous) core bucket matched,
  // and this is exactly the E7 extension's extra disclosure.
  for (uint32_t t = 0; t < alice_cores; ++t) {
    PPD_RETURN_IF_ERROR(HdpBatchResponder(channel, *peer.session,
                                          *peer.comparator, own, rng, &cores,
                                          /*permute=*/false));
  }

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> links_payload,
                       ExpectMessage(channel, wire::kMergeLinks));
  ByteReader links_reader(links_payload);
  PPD_ASSIGN_OR_RETURN(uint32_t edge_count, links_reader.GetU32());
  std::set<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t e = 0; e < edge_count; ++e) {
    PPD_ASSIGN_OR_RETURN(uint32_t a, links_reader.GetU32());
    PPD_ASSIGN_OR_RETURN(uint32_t b, links_reader.GetU32());
    if (a >= alice_clusters ||
        b >= static_cast<uint32_t>(result->num_clusters)) {
      return Status::DataLoss("merge edge out of range");
    }
    edges.emplace(a, b);
  }
  if (disclosures != nullptr) {
    disclosures->Record("merge_links", static_cast<int64_t>(edges.size()));
  }
  RelabelAfterMerge(alice_clusters, result->num_clusters, edges,
                    /*is_alice=*/false, result);
  return Status::Ok();
}

}  // namespace

Result<PartyClusteringResult> RunHorizontalDbscan(
    const std::vector<Channel*>& links,
    const std::vector<const SmcSession*>& sessions, const Dataset& own_points,
    size_t index, size_t parties, const ProtocolOptions& options,
    SecureRng& rng, DisclosureLog* disclosures,
    uint64_t* selection_comparisons, PlanStats* plan_stats) {
  if (parties < 2) {
    return Status::InvalidArgument("a horizontal run needs >= 2 parties");
  }
  if (index >= parties) {
    return Status::InvalidArgument("party index out of range");
  }
  if (links.size() != parties || sessions.size() != parties) {
    return Status::InvalidArgument("need one link and session slot per party");
  }
  if (parties > 2 && options.mode != HorizontalMode::kBasic) {
    return Status::InvalidArgument(
        "runs of more than two parties support HorizontalMode::kBasic only "
        "(see core/horizontal.h)");
  }
  if (parties > 2 && options.cross_party_merge) {
    return Status::InvalidArgument(
        "cross_party_merge is a two-party extension; not defined for "
        "multi-party runs");
  }

  // One link per peer in the public party order, each with a comparator
  // bound to its session.
  std::vector<PeerLink> peers(parties - 1);
  for (size_t j = 0; j < parties; ++j) {
    if (j == index) continue;
    if (links[j] == nullptr || sessions[j] == nullptr) {
      return Status::InvalidArgument("missing link or session for a peer");
    }
    PeerLink& peer = peers[j < index ? j : j - 1];
    peer.channel = links[j];
    peer.session = sessions[j];
    PPD_ASSIGN_OR_RETURN(peer.comparator,
                         CreateComparator(options.comparator, *sessions[j],
                                          rng));
  }

  // Exact mode runs no plan round.
  const PlanMode mode = options.plan.mode;
  if (mode != PlanMode::kExact) {
    PPD_RETURN_IF_ERROR(
        NegotiatePlan(peers, own_points, options, disclosures, plan_stats));
  }

  auto total_invocations = [&peers]() {
    uint64_t sum = 0;
    for (const PeerLink& peer : peers) sum += peer.comparator->invocations();
    return sum;
  };
  // Attributes measured comparisons to the role this party played in each
  // phase: querier while driving, assistant while responding.
  uint64_t mark = total_invocations();
  auto account = [&](bool querier) {
    const uint64_t now = total_invocations();
    if (plan_stats != nullptr) {
      (querier ? plan_stats->encrypted_comparisons
               : plan_stats->assisted_comparisons) += now - mark;
    }
    mark = now;
  };

  // Party d scans while every other party serves d. All parties iterate
  // the same schedule, so no link carries two conversations at once.
  PartyClusteringResult result;
  for (size_t d = 0; d < parties; ++d) {
    if (d == index) {
      PPD_ASSIGN_OR_RETURN(
          result, DriverScan(peers, own_points, options, rng, disclosures,
                             selection_comparisons, plan_stats));
    } else {
      PPD_RETURN_IF_ERROR(ResponderLoop(peers[d < index ? d : d - 1],
                                        own_points, options, rng));
    }
    account(d == index);
  }

  if (options.cross_party_merge) {
    // The merge phase is plan-independent (it compares core points, which
    // are already scan outputs) and runs over the full datasets.
    const PartyRole role = index == 0 ? PartyRole::kAlice : PartyRole::kBob;
    PPD_RETURN_IF_ERROR(MergePhase(peers.front(), own_points, role, options,
                                   rng, disclosures, &result));
    account(role == PartyRole::kAlice);
  }

  if (plan_stats != nullptr && mode == PlanMode::kExact) {
    // No plan round ran, so the peer counts are unknown; the measurement
    // IS the exact bill by definition.
    plan_stats->candidate_points = own_points.size();
    plan_stats->responder_points = own_points.size() * (parties - 1);
    plan_stats->exact_comparisons = plan_stats->encrypted_comparisons;
    plan_stats->predicted_comparisons = plan_stats->encrypted_comparisons;
  }
  return result;
}

}  // namespace ppdbscan
