#include "core/horizontal.h"

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
Result<bool> EnhancedCoreTest(Channel& channel, const SmcSession& session,
                              SecureComparator& comparator,
                              const std::vector<int64_t>& point,
                              int64_t k_star, const ProtocolOptions& options,
                              SecureRng& rng, DisclosureLog* disclosures,
                              uint64_t* selection_comparisons) {
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kHzQueryEnhanced,
                                  std::vector<uint8_t>()));
  uint64_t comparisons = 0;
  PPD_ASSIGN_OR_RETURN(
      bool core,
      EnhancedCoreTestDriver(channel, session, comparator, point, k_star,
                             options.params.eps_squared, options.selection,
                             options.share_mask_bits, rng, &comparisons));
  if (selection_comparisons != nullptr) *selection_comparisons += comparisons;
  if (disclosures != nullptr) {
    disclosures->Record("peer_core_bit", core ? 1 : 0);
  }
  return core;
}

/// Algorithm 3/4 (or 7/8) over this party's own points, in two phases.
/// Phase 1 decides every core flag. Under the pruning plan, `boundary`
/// marks the points that can possibly have peer neighbours; the rest
/// (interior points) decide locally with no protocol round — their peer
/// count is provably zero. Every other point is a candidate: basic mode
/// asks for all candidates' peer counts in one batched membership round
/// (smc/membership.h), enhanced mode runs one §5 core test per candidate
/// in index order. Phase 2 expands locally (ExpandWithCoreFlags); core
/// status does not depend on scan order, so the labels equal those of a
/// scan that tests each point when it reaches it. Null boundary means
/// every point is a candidate (exact mode).
Result<PartyClusteringResult> DriverScan(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const Dataset& own, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures, uint64_t* selection_comparisons,
    const std::vector<bool>* boundary) {
  const DbscanParams& params = options.params;
  LinearRegionQuerier local(own);
  std::vector<size_t> own_counts(own.size());
  std::vector<bool> core(own.size());
  std::vector<size_t> candidates;
  for (size_t i = 0; i < own.size(); ++i) {
    own_counts[i] = local.Query(i, params.eps_squared).size();
    if (boundary != nullptr && !(*boundary)[i]) {
      core[i] = own_counts[i] >= params.min_pts;
    } else {
      candidates.push_back(i);
    }
  }

  if (options.mode == HorizontalMode::kBasic && !candidates.empty()) {
    std::vector<std::vector<int64_t>> queries;
    queries.reserve(candidates.size());
    for (size_t i : candidates) queries.push_back(own.point(i));
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kHzQueryMembership,
                                    std::vector<uint8_t>()));
    PPD_ASSIGN_OR_RETURN(
        std::vector<size_t> peer_counts,
        MembershipBatchDriver(channel, session, comparator, queries,
                              params.eps_squared, rng));
    for (size_t t = 0; t < candidates.size(); ++t) {
      if (disclosures != nullptr) {
        disclosures->Record("peer_neighbor_count",
                            static_cast<int64_t>(peer_counts[t]));
      }
      core[candidates[t]] =
          own_counts[candidates[t]] + peer_counts[t] >= params.min_pts;
    }
  } else if (options.mode == HorizontalMode::kEnhanced) {
    for (size_t i : candidates) {
      const int64_t k_star = static_cast<int64_t>(params.min_pts) -
                             static_cast<int64_t>(own_counts[i]);
      PPD_ASSIGN_OR_RETURN(
          bool is_core,
          EnhancedCoreTest(channel, session, comparator, own.point(i), k_star,
                           options, rng, disclosures, selection_comparisons));
      core[i] = is_core;
    }
  }
  PPD_RETURN_IF_ERROR(
      SendMessage(channel, wire::kHzScanDone, std::vector<uint8_t>()));

  return ToPartyResult(ExpandWithCoreFlags(own, params, core, &local));
}

/// Serves the peer's scan. `own` is this party's plan view — the full
/// dataset in exact mode, the boundary band or sieved subset otherwise.
Status ResponderLoop(Channel& channel, const SmcSession& session,
                     SecureComparator& comparator, const Dataset& own,
                     const ProtocolOptions& options, SecureRng& rng) {
  while (true) {
    PPD_ASSIGN_OR_RETURN(Message msg, RecvMessage(channel));
    switch (msg.type) {
      case wire::kHzQueryBasic:
        PPD_RETURN_IF_ERROR(
            HdpBatchResponder(channel, session, comparator, own, rng));
        break;
      case wire::kHzQueryEnhanced:
        PPD_RETURN_IF_ERROR(EnhancedCoreTestResponder(
            channel, session, comparator, own, options.share_mask_bits, rng));
        break;
      case wire::kHzQueryMembership: {
        std::vector<std::vector<int64_t>> points;
        points.reserve(own.size());
        for (size_t i = 0; i < own.size(); ++i) points.push_back(own.point(i));
        PPD_RETURN_IF_ERROR(MembershipBatchResponder(channel, session,
                                                     comparator, points, rng));
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

}  // namespace

Status ServeHorizontalScan(Channel& channel, const SmcSession& session,
                           SecureComparator& comparator, const Dataset& own,
                           const ProtocolOptions& options, SecureRng& rng) {
  return ResponderLoop(channel, session, comparator, own, options, rng);
}

namespace {

/// What the two-party plan negotiation round produced.
struct TwoPartyPlan {
  /// Prune: per own point, whether it can have peer neighbours at all.
  std::vector<bool> boundary;
  /// The view this party exposes when responding (band or sieved subset).
  Dataset serve_view{1};
  uint32_t peer_count = 0;
  uint64_t peer_band = 0;  // prune: size of the peer's serve view
};

/// Runs the plan round for a non-exact plan: both parties exchange
/// kPlanBounds (mode byte, record count, bounding box — empty under
/// kSieve), and under kPrune additionally kPlanBands with their boundary
/// band sizes. Everything sent here is deliberate plaintext disclosure,
/// mirrored into the DisclosureLog. Symmetric: both parties send first,
/// then read (channels buffer, as in session establishment).
Result<TwoPartyPlan> NegotiateTwoPartyPlan(Channel& channel,
                                           const Dataset& own,
                                           const ProtocolOptions& options,
                                           DisclosureLog* disclosures,
                                           PlanStats* stats) {
  const PlanMode mode = options.plan.mode;
  TwoPartyPlan plan;

  ByteWriter bounds;
  bounds.PutU8(static_cast<uint8_t>(mode));
  bounds.PutU32(static_cast<uint32_t>(own.size()));
  BoundingBox own_box;
  if (mode == PlanMode::kPrune) own_box = ComputeBoundingBox(own);
  WriteBoundingBox(bounds, own_box);
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kPlanBounds, bounds));

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kPlanBounds));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint8_t peer_mode, reader.GetU8());
  if (peer_mode != static_cast<uint8_t>(mode)) {
    return Status::DataLoss("plan mode mismatch in plan round");
  }
  PPD_ASSIGN_OR_RETURN(plan.peer_count, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(BoundingBox peer_box,
                       ReadBoundingBox(reader, own.dims()));
  if (!reader.Done()) return Status::DataLoss("trailing plan round bytes");
  if (disclosures != nullptr) {
    disclosures->Record("plan_peer_points",
                        static_cast<int64_t>(plan.peer_count));
  }
  if (stats != nullptr) stats->peer_points = plan.peer_count;

  if (mode == PlanMode::kPrune) {
    if (disclosures != nullptr) {
      for (size_t t = 0; t < peer_box.dims(); ++t) {
        disclosures->Record("plan_peer_box_coord", peer_box.lo[t]);
        disclosures->Record("plan_peer_box_coord", peer_box.hi[t]);
      }
    }
    GridRegionQuerier grid(own, options.params.eps_squared);
    std::vector<size_t> band =
        grid.PointsWithinEpsOfBox(peer_box, options.params.eps_squared);
    plan.boundary.assign(own.size(), false);
    for (size_t i : band) plan.boundary[i] = true;

    ByteWriter bands;
    bands.PutU32(static_cast<uint32_t>(band.size()));
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kPlanBands, bands));
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> band_payload,
                         ExpectMessage(channel, wire::kPlanBands));
    ByteReader band_reader(band_payload);
    PPD_ASSIGN_OR_RETURN(uint32_t peer_band, band_reader.GetU32());
    if (!band_reader.Done()) {
      return Status::DataLoss("trailing plan band bytes");
    }
    plan.peer_band = peer_band;
    if (disclosures != nullptr) {
      disclosures->Record("plan_peer_band", static_cast<int64_t>(peer_band));
    }
    plan.serve_view = SubsetDataset(own, band);
    if (stats != nullptr) {
      stats->candidate_points = band.size();
      stats->interior_points = own.size() - band.size();
      stats->responder_points = band.size();
      stats->exact_comparisons =
          static_cast<uint64_t>(own.size()) * plan.peer_count;
      stats->predicted_comparisons =
          static_cast<uint64_t>(band.size()) * plan.peer_band;
    }
    return plan;
  }

  // Sieve: the subset is fully determined by the public (n, k).
  std::vector<size_t> sieved =
      SievedIndices(own.size(), options.plan.sieve_k);
  plan.serve_view = SubsetDataset(own, sieved);
  if (stats != nullptr) {
    stats->candidate_points = sieved.size();
    stats->responder_points = sieved.size();
    stats->exact_comparisons =
        static_cast<uint64_t>(own.size()) * plan.peer_count;
    stats->predicted_comparisons =
        static_cast<uint64_t>(sieved.size()) *
        SievedCount(plan.peer_count, options.plan.sieve_k);
  }
  return plan;
}

/// Sieve-mode driver phase: binds the two-party protocol rounds into the
/// peer-agnostic sieve engine (core/plan.h) and signals kHzScanDone when
/// the engine — including its rescue round — has finished.
Result<PartyClusteringResult> SieveDriverScan(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const Dataset& own, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures, uint64_t* selection_comparisons,
    PlanStats* stats) {
  const uint32_t k = options.plan.sieve_k;

  SievePeerHooks hooks;
  hooks.core_test = [&](const std::vector<int64_t>& point,
                        size_t own_full) -> Result<bool> {
    if (options.mode == HorizontalMode::kBasic) {
      PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kHzQueryBasic,
                                      std::vector<uint8_t>()));
      PPD_ASSIGN_OR_RETURN(
          size_t peer_count,
          HdpBatchDriver(channel, session, comparator, point,
                         options.params.eps_squared, rng));
      if (disclosures != nullptr) {
        disclosures->Record("peer_neighbor_count",
                            static_cast<int64_t>(peer_count));
      }
      return own_full + size_t{k} * peer_count >= options.params.min_pts;
    }
    // own_full + k·peer >= MinPts  ⟺  peer >= ceil((MinPts − own_full)/k):
    // the §5 test asks whether the peer's k*-th smallest distance is within
    // Eps, so the deficit is divided by the sieve stride.
    const int64_t deficit = static_cast<int64_t>(options.params.min_pts) -
                            static_cast<int64_t>(own_full);
    const int64_t k_star =
        deficit > 0 ? (deficit + k - 1) / static_cast<int64_t>(k) : deficit;
    return EnhancedCoreTest(channel, session, comparator, point, k_star,
                            options, rng, disclosures, selection_comparisons);
  };
  hooks.membership = [&](const std::vector<std::vector<int64_t>>& queries)
      -> Result<std::vector<size_t>> {
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kHzQueryMembership,
                                    std::vector<uint8_t>()));
    PPD_ASSIGN_OR_RETURN(
        std::vector<size_t> counts,
        MembershipBatchDriver(channel, session, comparator, queries,
                              options.params.eps_squared, rng));
    if (disclosures != nullptr) {
      for (size_t c : counts) {
        disclosures->Record("membership_count", static_cast<int64_t>(c));
      }
    }
    return counts;
  };

  PPD_ASSIGN_OR_RETURN(DbscanResult sieved,
                       RunSievePlan(own, options.params, k, hooks, stats));
  PPD_RETURN_IF_ERROR(
      SendMessage(channel, wire::kHzScanDone, std::vector<uint8_t>()));
  return ToPartyResult(std::move(sieved));
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

/// E7 extension: cross-party cluster linking via core-core adjacency.
Status MergePhase(Channel& channel, const SmcSession& session,
                  SecureComparator& comparator, const Dataset& own,
                  PartyRole role, const ProtocolOptions& options,
                  SecureRng& rng, DisclosureLog* disclosures,
                  PartyClusteringResult* result) {
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
    PPD_ASSIGN_OR_RETURN(uint32_t bob_cores, reader.GetU32());
    PPD_ASSIGN_OR_RETURN(uint32_t bob_clusters, reader.GetU32());
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
          HdpBatchDriver(channel, session, comparator, own.point(a),
                         options.params.eps_squared, rng, &bits));
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
  PPD_ASSIGN_OR_RETURN(uint32_t alice_cores, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t alice_clusters, reader.GetU32());

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
    PPD_RETURN_IF_ERROR(HdpBatchResponder(channel, session, comparator, own,
                                          rng, &cores, /*permute=*/false));
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
    Channel& channel, const SmcSession& session, const Dataset& own_points,
    PartyRole role, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures, uint64_t* selection_comparisons,
    PlanStats* plan_stats) {
  PPD_ASSIGN_OR_RETURN(
      std::unique_ptr<SecureComparator> comparator,
      CreateComparator(options.comparator, session, rng));

  const PlanMode mode = options.plan.mode;
  if (plan_stats != nullptr) {
    plan_stats->mode = mode;
    plan_stats->sieve_k =
        mode == PlanMode::kSieve ? options.plan.sieve_k : 0;
    plan_stats->local_points = own_points.size();
  }

  // Exact mode runs no plan round — the wire protocol is unchanged.
  TwoPartyPlan plan;
  const Dataset* serve_view = &own_points;
  if (mode != PlanMode::kExact) {
    PPD_ASSIGN_OR_RETURN(
        plan, NegotiateTwoPartyPlan(channel, own_points, options, disclosures,
                                    plan_stats));
    serve_view = &plan.serve_view;
  }

  auto drive = [&]() -> Result<PartyClusteringResult> {
    if (mode == PlanMode::kSieve) {
      return SieveDriverScan(channel, session, *comparator, own_points,
                             options, rng, disclosures, selection_comparisons,
                             plan_stats);
    }
    return DriverScan(channel, session, *comparator, own_points, options,
                      rng, disclosures, selection_comparisons,
                      mode == PlanMode::kPrune ? &plan.boundary : nullptr);
  };

  // Attribute measured comparisons to the role this party played in each
  // phase: querier while driving, assistant while responding.
  uint64_t mark = comparator->invocations();
  auto account = [&](uint64_t* field) {
    const uint64_t now = comparator->invocations();
    if (plan_stats != nullptr && field != nullptr) *field += now - mark;
    mark = now;
  };

  PartyClusteringResult result;
  if (role == PartyRole::kAlice) {
    PPD_ASSIGN_OR_RETURN(result, drive());
    account(plan_stats != nullptr ? &plan_stats->encrypted_comparisons
                                  : nullptr);
    PPD_RETURN_IF_ERROR(ResponderLoop(channel, session, *comparator,
                                      *serve_view, options, rng));
    account(plan_stats != nullptr ? &plan_stats->assisted_comparisons
                                  : nullptr);
  } else {
    PPD_RETURN_IF_ERROR(ResponderLoop(channel, session, *comparator,
                                      *serve_view, options, rng));
    account(plan_stats != nullptr ? &plan_stats->assisted_comparisons
                                  : nullptr);
    PPD_ASSIGN_OR_RETURN(result, drive());
    account(plan_stats != nullptr ? &plan_stats->encrypted_comparisons
                                  : nullptr);
  }

  if (options.cross_party_merge) {
    // The merge phase is plan-independent (it compares core points, which
    // are already scan outputs) and runs over the full datasets.
    PPD_RETURN_IF_ERROR(MergePhase(channel, session, *comparator, own_points,
                                   role, options, rng, disclosures, &result));
    account(plan_stats == nullptr ? nullptr
            : role == PartyRole::kAlice ? &plan_stats->encrypted_comparisons
                                        : &plan_stats->assisted_comparisons);
  }

  if (plan_stats != nullptr && mode == PlanMode::kExact) {
    // No plan round ran, so the peer count is unknown; the measurement IS
    // the exact bill by definition.
    plan_stats->candidate_points = own_points.size();
    plan_stats->responder_points = own_points.size();
    plan_stats->exact_comparisons = plan_stats->encrypted_comparisons;
    plan_stats->predicted_comparisons = plan_stats->encrypted_comparisons;
  }
  return result;
}

}  // namespace ppdbscan
