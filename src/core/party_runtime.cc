#include "core/job.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/arbitrary.h"
#include "core/horizontal.h"
#include "core/vertical.h"
#include "core/wire.h"
#include "net/message.h"

namespace ppdbscan {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Negotiation flag bits (must match VerifyHello).
constexpr uint8_t kFlagCrossPartyMerge = 1u << 0;
constexpr uint8_t kFlagVdpLocalPruning = 1u << 1;

uint8_t OptionFlags(const ProtocolOptions& options) {
  uint8_t flags = 0;
  if (options.cross_party_merge) flags |= kFlagCrossPartyMerge;
  if (options.vdp_local_pruning) flags |= kFlagVdpLocalPruning;
  return flags;
}

/// The kJobHello payload: version, scheme, party position, the public
/// scalar protocol parameters in the clear (so mismatch errors can name
/// the offending field), and a digest covering the remaining options.
ByteWriter BuildHello(const ClusteringJob& job, size_t own_index,
                      size_t party_count) {
  ByteWriter hello;
  hello.PutU16(kJobProtocolVersion);
  hello.PutU8(static_cast<uint8_t>(job.scheme));
  hello.PutU32(static_cast<uint32_t>(own_index));
  hello.PutU32(static_cast<uint32_t>(party_count));
  hello.PutU64(static_cast<uint64_t>(job.options.params.eps_squared));
  hello.PutU64(static_cast<uint64_t>(job.options.params.min_pts));
  hello.PutU8(static_cast<uint8_t>(job.options.mode));
  hello.PutU8(static_cast<uint8_t>(job.options.selection));
  hello.PutU8(static_cast<uint8_t>(job.options.comparator.kind));
  hello.PutU8(OptionFlags(job.options));
  hello.PutU64(
      static_cast<uint64_t>(job.options.comparator.max_batch_in_flight));
  hello.PutU32(static_cast<uint32_t>(job.options.round_deadline_ms));
  hello.PutU8(static_cast<uint8_t>(job.options.plan.mode));
  hello.PutU32(job.options.plan.sieve_k);
  hello.PutU64(ProtocolOptionsDigest(job.options));
  return hello;
}

Status Mismatch(const std::string& detail) {
  return Status::FailedPrecondition("job negotiation failed: " + detail);
}

/// Field-by-field verification of a peer hello. Both parties run the same
/// comparisons on each other's hellos, so any divergence produces the same
/// descriptive kFailedPrecondition on both sides.
Status VerifyHello(const std::vector<uint8_t>& payload,
                   const ClusteringJob& job, size_t own_index,
                   size_t expected_peer_index, size_t party_count) {
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint16_t version, reader.GetU16());
  if (version != kJobProtocolVersion) {
    return Mismatch("peer speaks job protocol version " +
                    std::to_string(version) + ", this build speaks " +
                    std::to_string(kJobProtocolVersion));
  }
  PPD_ASSIGN_OR_RETURN(uint8_t scheme, reader.GetU8());
  if (scheme != static_cast<uint8_t>(job.scheme)) {
    const char* peer_scheme =
        scheme <= static_cast<uint8_t>(PartitionScheme::kMultiparty)
            ? PartitionSchemeToString(static_cast<PartitionScheme>(scheme))
            : "unknown";
    return Mismatch(std::string("partition scheme mismatch (ours ") +
                    PartitionSchemeToString(job.scheme) + ", peer " +
                    peer_scheme + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint32_t peer_index, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t peer_count, reader.GetU32());
  if (peer_count != party_count) {
    return Mismatch("party-count mismatch (ours " +
                    std::to_string(party_count) + ", peer " +
                    std::to_string(peer_count) + ")");
  }
  if (peer_index != expected_peer_index) {
    if (job.scheme != PartitionScheme::kMultiparty &&
        peer_index == own_index) {
      return Mismatch(std::string("role collision — both parties are "
                                  "configured as ") +
                      PartyRoleToString(job.role) +
                      "; one must run as alice, the other as bob");
    }
    return Mismatch("peer reports party position " +
                    std::to_string(peer_index) + ", expected " +
                    std::to_string(expected_peer_index));
  }
  PPD_ASSIGN_OR_RETURN(uint64_t peer_eps, reader.GetU64());
  if (peer_eps != static_cast<uint64_t>(job.options.params.eps_squared)) {
    return Mismatch(
        "Eps² mismatch (ours " +
        std::to_string(job.options.params.eps_squared) + ", peer " +
        std::to_string(static_cast<int64_t>(peer_eps)) + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint64_t peer_min_pts, reader.GetU64());
  if (peer_min_pts != static_cast<uint64_t>(job.options.params.min_pts)) {
    return Mismatch("MinPts mismatch (ours " +
                    std::to_string(job.options.params.min_pts) + ", peer " +
                    std::to_string(peer_min_pts) + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint8_t peer_mode, reader.GetU8());
  if (peer_mode != static_cast<uint8_t>(job.options.mode)) {
    return Mismatch(std::string("horizontal mode mismatch (ours ") +
                    HorizontalModeToString(job.options.mode) + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint8_t peer_selection, reader.GetU8());
  if (peer_selection != static_cast<uint8_t>(job.options.selection)) {
    return Mismatch(std::string("selection algorithm mismatch (ours ") +
                    SelectionAlgorithmToString(job.options.selection) + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint8_t peer_comparator, reader.GetU8());
  if (peer_comparator != static_cast<uint8_t>(job.options.comparator.kind)) {
    return Mismatch(std::string("comparator kind mismatch (ours ") +
                    ComparatorKindToString(job.options.comparator.kind) + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint8_t peer_flags, reader.GetU8());
  const uint8_t own_flags = OptionFlags(job.options);
  if (peer_flags != own_flags) {
    if ((peer_flags ^ own_flags) & kFlagCrossPartyMerge) {
      return Mismatch("cross-party merge flag mismatch");
    }
    return Mismatch("vertical local-pruning flag mismatch");
  }
  PPD_ASSIGN_OR_RETURN(uint64_t peer_chunk, reader.GetU64());
  if (peer_chunk !=
      static_cast<uint64_t>(job.options.comparator.max_batch_in_flight)) {
    return Mismatch(
        "comparator batch limit mismatch (ours " +
        std::to_string(job.options.comparator.max_batch_in_flight) +
        ", peer " + std::to_string(peer_chunk) + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint32_t peer_deadline, reader.GetU32());
  if (static_cast<int32_t>(peer_deadline) !=
      job.options.round_deadline_ms) {
    // Deadlines must match: a party still waiting after its peers gave up
    // would see their teardown as a spurious link error, not a timeout.
    return Mismatch(
        "round deadline mismatch (ours " +
        std::to_string(job.options.round_deadline_ms) + "ms, peer " +
        std::to_string(static_cast<int32_t>(peer_deadline)) + "ms)");
  }
  PPD_ASSIGN_OR_RETURN(uint8_t peer_plan, reader.GetU8());
  if (peer_plan != static_cast<uint8_t>(job.options.plan.mode)) {
    const char* peer_name =
        peer_plan <= static_cast<uint8_t>(PlanMode::kSieve)
            ? PlanModeToString(static_cast<PlanMode>(peer_plan))
            : "unknown";
    return Mismatch(std::string("plan mode mismatch (ours ") +
                    PlanModeToString(job.options.plan.mode) + ", peer " +
                    peer_name + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint32_t peer_sieve_k, reader.GetU32());
  if (peer_sieve_k != job.options.plan.sieve_k) {
    return Mismatch("sieve stride mismatch (ours " +
                    std::to_string(job.options.plan.sieve_k) + ", peer " +
                    std::to_string(peer_sieve_k) + ")");
  }
  PPD_ASSIGN_OR_RETURN(uint64_t peer_digest, reader.GetU64());
  if (peer_digest != ProtocolOptionsDigest(job.options)) {
    return Mismatch(
        "ProtocolOptions digest mismatch — the comparator magnitude bound, "
        "blinding bits, YMPP prime rounds, or share mask width differ");
  }
  if (!reader.Done()) {
    return Status::DataLoss("trailing bytes in job hello");
  }
  return Status::Ok();
}

}  // namespace

const char* PartitionSchemeToString(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kHorizontal:
      return "horizontal";
    case PartitionScheme::kVertical:
      return "vertical";
    case PartitionScheme::kArbitrary:
      return "arbitrary";
    case PartitionScheme::kMultiparty:
      return "multiparty";
  }
  return "unknown";
}

ClusteringJob ClusteringJob::Horizontal(Dataset own_points, PartyRole role,
                                        ProtocolOptions options) {
  ClusteringJob job;
  job.scheme = PartitionScheme::kHorizontal;
  job.data = std::move(own_points);
  job.options = std::move(options);
  job.role = role;
  return job;
}

ClusteringJob ClusteringJob::Vertical(Dataset own_columns, PartyRole role,
                                      ProtocolOptions options) {
  ClusteringJob job;
  job.scheme = PartitionScheme::kVertical;
  job.data = std::move(own_columns);
  job.options = std::move(options);
  job.role = role;
  return job;
}

ClusteringJob ClusteringJob::Arbitrary(ArbitraryPartyView own_view,
                                       PartyRole role,
                                       ProtocolOptions options) {
  ClusteringJob job;
  job.scheme = PartitionScheme::kArbitrary;
  job.data = std::move(own_view);
  job.options = std::move(options);
  job.role = role;
  return job;
}

ClusteringJob ClusteringJob::Multiparty(Dataset own_points, size_t party_index,
                                        size_t party_count,
                                        ProtocolOptions options) {
  ClusteringJob job;
  job.scheme = PartitionScheme::kMultiparty;
  job.data = std::move(own_points);
  job.options = std::move(options);
  job.party_index = party_index;
  job.party_count = party_count;
  return job;
}

size_t ClusteringJob::record_count() const {
  if (const Dataset* ds = std::get_if<Dataset>(&data)) return ds->size();
  return std::get<ArbitraryPartyView>(data).values.size();
}

size_t ClusteringJob::dims() const {
  if (const Dataset* ds = std::get_if<Dataset>(&data)) return ds->dims();
  return std::get<ArbitraryPartyView>(data).dims;
}

Result<PartyRuntime> PartyRuntime::Connect(Channel& channel, SecureRng rng,
                                           const SmcOptions& smc) {
  PartyRuntime runtime;
  runtime.rng_ = std::make_unique<SecureRng>(std::move(rng));
  const auto start = SteadyClock::now();
  PPD_ASSIGN_OR_RETURN(SmcSession session,
                       SmcSession::Establish(channel, *runtime.rng_, smc));
  runtime.establish_seconds_ = SecondsSince(start);
  runtime.links_.push_back(&channel);
  runtime.sessions_.push_back(
      std::make_shared<SmcSession>(std::move(session)));
  // Key setup traffic is excluded from per-job statistics (the paper's
  // per-invocation accounting).
  channel.ResetStats();
  return runtime;
}

Result<PartyRuntime> PartyRuntime::Connect(std::unique_ptr<Channel> channel,
                                           SecureRng rng,
                                           const SmcOptions& smc) {
  if (channel == nullptr) {
    return Status::InvalidArgument("PartyRuntime::Connect needs a channel");
  }
  Result<PartyRuntime> runtime = Connect(*channel, std::move(rng), smc);
  if (!runtime.ok()) {
    // Unblock a peer waiting in Recv before the channel is destroyed.
    channel->Close();
    return runtime.status();
  }
  runtime->owned_channels_.push_back(std::move(channel));
  return runtime;
}

Result<PartyRuntime> PartyRuntime::ConnectMesh(
    const std::vector<Channel*>& links, size_t index, SecureRng rng,
    const SmcOptions& smc) {
  const size_t p = links.size();
  if (p < 2) {
    return Status::InvalidArgument("a party mesh needs >= 2 parties");
  }
  if (index >= p) {
    return Status::InvalidArgument("party index out of range");
  }
  for (size_t j = 0; j < p; ++j) {
    if (j != index && links[j] == nullptr) {
      return Status::InvalidArgument("missing channel for a mesh peer");
    }
  }
  PartyRuntime runtime;
  runtime.mesh_ = true;
  runtime.index_ = index;
  runtime.parties_ = p;
  runtime.links_ = links;
  runtime.sessions_.resize(p);
  runtime.rng_ = std::make_unique<SecureRng>(std::move(rng));
  const auto start = SteadyClock::now();
  // Pairwise key exchange, every pair in the same public order (all
  // parties iterate this schedule concurrently).
  for (size_t a = 0; a < p; ++a) {
    for (size_t b = a + 1; b < p; ++b) {
      if (a != index && b != index) continue;
      const size_t peer = a == index ? b : a;
      PPD_ASSIGN_OR_RETURN(
          SmcSession session,
          SmcSession::Establish(*runtime.links_[peer], *runtime.rng_, smc));
      runtime.sessions_[peer] =
          std::make_shared<SmcSession>(std::move(session));
    }
  }
  runtime.establish_seconds_ = SecondsSince(start);
  for (size_t j = 0; j < p; ++j) {
    if (j != index) runtime.links_[j]->ResetStats();
  }
  return runtime;
}

Result<PartyRuntime> PartyRuntime::AdoptMesh(
    const std::vector<Channel*>& links, size_t index,
    std::vector<std::shared_ptr<SmcSession>> sessions, SecureRng rng) {
  const size_t p = links.size();
  if (p < 2) {
    return Status::InvalidArgument("a party mesh needs >= 2 parties");
  }
  if (index >= p) {
    return Status::InvalidArgument("party index out of range");
  }
  if (sessions.size() != p) {
    return Status::InvalidArgument(
        "AdoptMesh needs one session slot per party");
  }
  for (size_t j = 0; j < p; ++j) {
    if (j == index) continue;
    if (links[j] == nullptr) {
      return Status::InvalidArgument("missing channel for a mesh peer");
    }
    if (sessions[j] == nullptr) {
      return Status::InvalidArgument(
          "missing established session for a mesh peer");
    }
  }
  PartyRuntime runtime;
  runtime.mesh_ = true;
  runtime.index_ = index;
  runtime.parties_ = p;
  runtime.links_ = links;
  runtime.sessions_ = std::move(sessions);
  runtime.rng_ = std::make_unique<SecureRng>(std::move(rng));
  // No key exchange: establish_seconds_ stays 0 — the whole point.
  return runtime;
}

Status PartyRuntime::ReestablishSession(size_t peer, Channel& link,
                                        const SmcOptions& smc) {
  if (!mesh_) {
    return Status::InvalidArgument(
        "ReestablishSession is mesh-only; reconnect two-party runtimes by "
        "constructing a fresh one");
  }
  if (peer >= parties_ || peer == index_) {
    return Status::InvalidArgument("ReestablishSession needs a mesh peer");
  }
  PPD_ASSIGN_OR_RETURN(SmcSession session,
                       SmcSession::Establish(link, *rng_, smc));
  sessions_[peer] = std::make_shared<SmcSession>(std::move(session));
  links_[peer] = &link;
  link.ResetStats();
  return Status::Ok();
}

const SmcSession& PartyRuntime::session() const {
  PPD_CHECK_MSG(!mesh_, "session() is the two-party accessor; use "
                        "session_with(peer) on a mesh runtime");
  return *sessions_[0];
}

const SmcSession* PartyRuntime::session_with(size_t peer) const {
  if (peer >= sessions_.size()) return nullptr;
  return sessions_[peer].get();
}

Channel& PartyRuntime::channel() const {
  PPD_CHECK_MSG(!mesh_, "channel() is the two-party accessor");
  return *links_[0];
}

Status PartyRuntime::ValidateJob(const ClusteringJob& job) const {
  if (job.scheme == PartitionScheme::kMultiparty) {
    if (!mesh_) {
      return Status::InvalidArgument(
          "multiparty jobs need a mesh runtime (ConnectMesh)");
    }
    if (job.party_count != parties_ || job.party_index != index_) {
      return Status::InvalidArgument(
          "job party position does not match this mesh runtime");
    }
    // Even at P = 2: a kMultiparty job is the N-party protocol.
    if (job.options.mode != HorizontalMode::kBasic) {
      return Status::InvalidArgument(
          "multi-party runs support HorizontalMode::kBasic only (see "
          "core/horizontal.h)");
    }
    if (job.options.cross_party_merge) {
      return Status::InvalidArgument(
          "cross_party_merge is a two-party extension; not defined for "
          "multi-party runs");
    }
  } else if (mesh_) {
    return Status::InvalidArgument(
        "two-party jobs need a two-party runtime (Connect)");
  }
  const bool needs_view = job.scheme == PartitionScheme::kArbitrary;
  if (needs_view && !std::holds_alternative<ArbitraryPartyView>(job.data)) {
    return Status::InvalidArgument(
        "arbitrary-partition jobs carry an ArbitraryPartyView");
  }
  if (!needs_view && !std::holds_alternative<Dataset>(job.data)) {
    return Status::InvalidArgument(
        "horizontal/vertical/multiparty jobs carry a Dataset");
  }
  if (job.options.plan.mode == PlanMode::kSieve) {
    if (job.scheme == PartitionScheme::kVertical ||
        job.scheme == PartitionScheme::kArbitrary) {
      return Status::InvalidArgument(
          "the sieve plan is defined for horizontally partitioned schemes "
          "only (vertical/arbitrary parties share the record id space, so "
          "a sieved subset cannot be assigned locally)");
    }
    if (job.options.plan.sieve_k < 2) {
      return Status::InvalidArgument(
          "sieve plan needs sieve_k >= 2 (1 is exact mode)");
    }
    if (job.options.cross_party_merge) {
      return Status::InvalidArgument(
          "sieve plan does not compose with cross_party_merge (the merge "
          "phase assumes the full core set; run prune or exact instead)");
    }
  }
  return Status::Ok();
}

Status PartyRuntime::Negotiate(const ClusteringJob& job) {
  const size_t own_index =
      mesh_ ? index_ : (job.role == PartyRole::kAlice ? 0 : 1);
  const size_t party_count = mesh_ ? parties_ : 2;
  // Send every hello before receiving any: the channels buffer, so the
  // round is deadlock-free regardless of how the parties are scheduled,
  // and a mismatch surfaces as the same descriptive error on both sides.
  for (size_t j = 0; j < links_.size(); ++j) {
    if (mesh_ && j == index_) continue;
    PPD_RETURN_IF_ERROR(SendMessage(*links_[j], wire::kJobHello,
                                    BuildHello(job, own_index, party_count)));
  }
  for (size_t j = 0; j < links_.size(); ++j) {
    if (mesh_ && j == index_) continue;
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(*links_[j], wire::kJobHello));
    const size_t expected_peer = mesh_ ? j : 1 - own_index;
    PPD_RETURN_IF_ERROR(
        VerifyHello(payload, job, own_index, expected_peer, party_count));
  }
  return Status::Ok();
}

Result<RunOutcome> PartyRuntime::Run(const ClusteringJob& job) {
  PPD_RETURN_IF_ERROR(ValidateJob(job));
  // Arm the negotiated per-round deadline on every link for the duration
  // of the job (negotiation included — the hello round itself must not
  // hang on a silent peer). Restored to blocking afterwards so a serve
  // daemon's idle control plane is unaffected.
  const int deadline_ms =
      job.options.round_deadline_ms > 0 ? job.options.round_deadline_ms : -1;
  for (size_t j = 0; j < links_.size(); ++j) {
    if (mesh_ && j == index_) continue;
    links_[j]->set_recv_deadline_ms(deadline_ms);
  }
  Result<RunOutcome> outcome = RunJobRounds(job);
  for (size_t j = 0; j < links_.size(); ++j) {
    if (mesh_ && j == index_) continue;
    links_[j]->set_recv_deadline_ms(-1);
  }
  if (!outcome.ok()) {
    // Failure containment: tell every peer why this party is bailing (best
    // effort — a dead link just drops the frame). A peer blocked in a
    // protocol round then fails kAborted immediately instead of running
    // out its own deadline.
    const std::string reason = outcome.status().ToString();
    std::vector<uint8_t> payload;
    payload.reserve(reason.size() + 1);
    // Leading origin byte: peers classify the abort (retryable or not) on
    // this structured code, never by grepping the reason text.
    payload.push_back(AbortOriginCode(outcome.status()));
    payload.insert(payload.end(), reason.begin(), reason.end());
    for (size_t j = 0; j < links_.size(); ++j) {
      if (mesh_ && j == index_) continue;
      (void)SendMessage(*links_[j], kAbortMessageType, payload);
    }
  }
  return outcome;
}

Result<RunOutcome> PartyRuntime::RunJobRounds(const ClusteringJob& job) {
  RunOutcome outcome;
  for (size_t j = 0; j < links_.size(); ++j) {
    if (mesh_ && j == index_) continue;
    links_[j]->ResetStats();
  }

  const auto run_start = SteadyClock::now();
  PPD_RETURN_IF_ERROR(Negotiate(job));
  outcome.timings.negotiation_seconds = SecondsSince(run_start);

  // Pre-warm the randomizer pools from the job metadata: the protocol's
  // first cipher-matrix round needs about count × dims encryption factors,
  // so ask for them now instead of relying on the fixed steady-state
  // depth. Capped so a huge job cannot make the producer buffer unbounded
  // factor state (each factor is a mod-n² residue); past the cap the pool
  // keeps refilling during network waits as before.
  constexpr size_t kMaxPrewarmFactors = 1024;
  const size_t demand =
      std::min(job.record_count() * job.dims(), kMaxPrewarmFactors);
  if (demand > 0) {
    for (const std::shared_ptr<SmcSession>& session : sessions_) {
      if (session != nullptr) session->PrewarmRandomizers(demand);
    }
  }

  // The planner block is always reported; exact-mode runs fill in their
  // measured comparisons with zero savings. Vertical/arbitrary runs treat
  // kPrune as a documented no-op (their parties share the record id space
  // already); vertical runs report their measured comparisons, arbitrary
  // runs only the mode tag.
  outcome.plan.mode = job.options.plan.mode;
  outcome.plan.sieve_k = job.options.plan.mode == PlanMode::kSieve
                             ? job.options.plan.sieve_k
                             : 0;
  outcome.plan.local_points = job.record_count();

  const auto protocol_start = SteadyClock::now();
  Result<PartyClusteringResult> clustering = Status::Internal("unreached");
  switch (job.scheme) {
    case PartitionScheme::kVertical:
      clustering = RunVerticalDbscan(
          *links_[0], *sessions_[0], std::get<Dataset>(job.data), job.role,
          job.options, *rng_, &outcome.disclosures, &outcome.plan);
      break;
    case PartitionScheme::kArbitrary:
      clustering = RunArbitraryDbscan(
          *links_[0], *sessions_[0], std::get<ArbitraryPartyView>(job.data),
          job.role, job.options, *rng_, &outcome.disclosures);
      break;
    case PartitionScheme::kHorizontal:
    case PartitionScheme::kMultiparty: {
      // One engine for both: a two-party runtime's single link is the
      // peer slot of a two-entry list, indexed by the role.
      const size_t own_index =
          mesh_ ? index_ : (job.role == PartyRole::kAlice ? 0 : 1);
      const size_t party_count = mesh_ ? parties_ : 2;
      std::vector<Channel*> links(party_count, nullptr);
      std::vector<const SmcSession*> sessions(party_count, nullptr);
      for (size_t j = 0; j < party_count; ++j) {
        if (j == own_index) continue;
        const size_t slot = mesh_ ? j : 0;
        links[j] = links_[slot];
        sessions[j] = sessions_[slot].get();
      }
      clustering = RunHorizontalDbscan(
          links, sessions, std::get<Dataset>(job.data), own_index,
          party_count, job.options, *rng_, &outcome.disclosures,
          &outcome.selection_comparisons, &outcome.plan);
      break;
    }
  }
  if (!clustering.ok()) return clustering.status();
  outcome.clustering = std::move(clustering).value();
  outcome.timings.protocol_seconds = SecondsSince(protocol_start);
  outcome.timings.total_seconds = SecondsSince(run_start);

  for (size_t j = 0; j < links_.size(); ++j) {
    if (mesh_ && j == index_) continue;
    const ChannelStats& s = links_[j]->stats();
    outcome.stats.bytes_sent += s.bytes_sent;
    outcome.stats.bytes_received += s.bytes_received;
    outcome.stats.frames_sent += s.frames_sent;
    outcome.stats.frames_received += s.frames_received;
    outcome.stats.rounds += s.rounds;
    outcome.stats.deadline_trips += s.deadline_trips;
    outcome.stats.aborts_seen += s.aborts_seen;
  }
  ++jobs_completed_;
  return outcome;
}

}  // namespace ppdbscan
