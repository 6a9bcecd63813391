#include "core/run.h"

#include <memory>
#include <thread>
#include <utility>

#include "net/memory_channel.h"
#include "net/socket_channel.h"

namespace ppdbscan {

namespace {

/// One party's thread body: connect a runtime over `channel` (key
/// exchange), run the job, close the channel — on failure too, so a peer
/// blocked in Recv observes a clean close instead of hanging.
void PartyMain(Channel& channel, const ClusteringJob& job, uint64_t seed,
               const SmcOptions& smc, Result<RunOutcome>* out) {
  Result<PartyRuntime> runtime =
      PartyRuntime::Connect(channel, SecureRng(seed), smc);
  if (!runtime.ok()) {
    *out = runtime.status();
    channel.Close();
    return;
  }
  *out = runtime->Run(job);
  channel.Close();
}

/// Builds a connected two-party channel pair over real TCP on the
/// loopback interface (ephemeral kernel-assigned port).
Result<std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>>
TcpLoopbackPair() {
  PPD_ASSIGN_OR_RETURN(SocketListener listener, SocketListener::Bind(0));
  const uint16_t port = listener.port();
  Result<std::unique_ptr<SocketChannel>> accepted =
      Status::Internal("accept thread did not run");
  // The accept is time-bounded so a failed connect (firewalled loopback,
  // port exhaustion) surfaces as an error instead of wedging the join.
  std::thread acceptor(
      [&] { accepted = listener.Accept(/*timeout_ms=*/15000); });
  Result<std::unique_ptr<SocketChannel>> connected =
      SocketChannel::Connect("127.0.0.1", port);
  acceptor.join();
  PPD_RETURN_IF_ERROR(accepted.status());
  PPD_RETURN_IF_ERROR(connected.status());
  return std::make_pair(
      std::unique_ptr<Channel>(std::move(accepted).value()),
      std::unique_ptr<Channel>(std::move(connected).value()));
}

Result<std::vector<RunOutcome>> ExecuteLocalPair(
    const std::vector<LocalJob>& parties, const SmcOptions& smc,
    LocalTransport transport) {
  std::unique_ptr<Channel> first;
  std::unique_ptr<Channel> second;
  if (transport == LocalTransport::kMemory) {
    auto [a, b] = MemoryChannel::CreatePair();
    first = std::move(a);
    second = std::move(b);
  } else {
    PPD_ASSIGN_OR_RETURN(auto pair, TcpLoopbackPair());
    first = std::move(pair.first);
    second = std::move(pair.second);
  }

  Result<RunOutcome> first_out = Status::Internal("party 0 did not run");
  Result<RunOutcome> second_out = Status::Internal("party 1 did not run");
  std::thread first_thread([&] {
    PartyMain(*first, parties[0].job, parties[0].seed, smc, &first_out);
  });
  std::thread second_thread([&] {
    PartyMain(*second, parties[1].job, parties[1].seed, smc, &second_out);
  });
  first_thread.join();
  second_thread.join();

  PPD_RETURN_IF_ERROR(first_out.status());
  PPD_RETURN_IF_ERROR(second_out.status());
  std::vector<RunOutcome> outcomes;
  outcomes.push_back(std::move(first_out).value());
  outcomes.push_back(std::move(second_out).value());
  return outcomes;
}

Result<std::vector<RunOutcome>> ExecuteLocalMesh(
    const std::vector<LocalJob>& parties, const SmcOptions& smc) {
  const size_t p = parties.size();
  // Full mesh of in-memory channels: channels[i][j] is party i's endpoint
  // of the (i, j) link.
  std::vector<std::vector<std::unique_ptr<MemoryChannel>>> channels(p);
  for (auto& row : channels) row.resize(p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i + 1; j < p; ++j) {
      auto [a, b] = MemoryChannel::CreatePair();
      channels[i][j] = std::move(a);
      channels[j][i] = std::move(b);
    }
  }

  std::vector<Result<RunOutcome>> outs;
  for (size_t i = 0; i < p; ++i) {
    outs.emplace_back(Status::Internal("party did not run"));
  }
  std::vector<std::thread> threads;
  threads.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      std::vector<Channel*> links(p, nullptr);
      for (size_t j = 0; j < p; ++j) {
        if (j != i) links[j] = channels[i][j].get();
      }
      Result<PartyRuntime> runtime = PartyRuntime::ConnectMesh(
          links, i, SecureRng(parties[i].seed), smc);
      if (runtime.ok()) {
        outs[i] = runtime->Run(parties[i].job);
      } else {
        outs[i] = runtime.status();
      }
      // Close all of this party's ends — on failure this unblocks peers
      // still waiting; on success the links are single-use anyway.
      for (size_t j = 0; j < p; ++j) {
        if (j != i) channels[i][j]->Close();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<RunOutcome> outcomes;
  outcomes.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    PPD_RETURN_IF_ERROR(outs[i].status());
    outcomes.push_back(std::move(outs[i]).value());
  }
  return outcomes;
}

/// Shim plumbing: maps a two-party ExecuteLocal result onto the legacy
/// TwoPartyOutcome shape.
Result<TwoPartyOutcome> RunPairJobs(ClusteringJob alice_job,
                                    ClusteringJob bob_job,
                                    const ExecutionConfig& config) {
  std::vector<LocalJob> jobs;
  jobs.push_back({std::move(alice_job), config.alice_seed});
  jobs.push_back({std::move(bob_job), config.bob_seed});
  PPD_ASSIGN_OR_RETURN(std::vector<RunOutcome> outcomes,
                       ExecuteLocal(jobs, config.smc));
  TwoPartyOutcome outcome;
  outcome.alice = std::move(outcomes[0].clustering);
  outcome.bob = std::move(outcomes[1].clustering);
  outcome.alice_stats = outcomes[0].stats;
  outcome.bob_stats = outcomes[1].stats;
  outcome.alice_disclosures = std::move(outcomes[0].disclosures);
  outcome.bob_disclosures = std::move(outcomes[1].disclosures);
  outcome.alice_selection_comparisons = outcomes[0].selection_comparisons;
  outcome.bob_selection_comparisons = outcomes[1].selection_comparisons;
  return outcome;
}

}  // namespace

Result<std::vector<RunOutcome>> ExecuteLocal(
    const std::vector<LocalJob>& parties, const SmcOptions& smc,
    LocalTransport transport) {
  if (parties.size() < 2) {
    return Status::InvalidArgument("ExecuteLocal needs >= 2 parties");
  }
  // kMultiparty jobs always run over a mesh runtime, even with two
  // parties (their hello names the multi-party scheme and position).
  const bool mesh = parties.size() > 2 ||
                    parties[0].job.scheme == PartitionScheme::kMultiparty;
  if (!mesh) {
    return ExecuteLocalPair(parties, smc, transport);
  }
  if (transport != LocalTransport::kMemory) {
    return Status::InvalidArgument(
        "tcp loopback transport supports two-party schemes; multiparty "
        "runs use the in-memory mesh");
  }
  return ExecuteLocalMesh(parties, smc);
}

std::vector<Result<RunOutcome>> ExecuteLocalOutcomes(
    const std::vector<LocalJob>& parties, const SmcOptions& smc,
    const std::vector<LocalLinkFault>& faults) {
  const size_t p = parties.size();
  std::vector<Result<RunOutcome>> outs;
  outs.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    outs.emplace_back(Status::Internal("party did not run"));
  }
  if (p < 2) {
    for (Result<RunOutcome>& out : outs) {
      out = Status::InvalidArgument("ExecuteLocalOutcomes needs >= 2 parties");
    }
    return outs;
  }
  // Full matrix of in-memory endpoints; ends[i][j] is party i's end of the
  // (i, j) link, individually wrappable with a scripted fault.
  std::vector<std::vector<std::unique_ptr<Channel>>> ends(p);
  for (auto& row : ends) row.resize(p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i + 1; j < p; ++j) {
      auto [a, b] = MemoryChannel::CreatePair();
      ends[i][j] = std::move(a);
      ends[j][i] = std::move(b);
    }
  }
  for (const LocalLinkFault& fault : faults) {
    if (fault.party >= p || fault.peer >= p || fault.party == fault.peer) {
      for (Result<RunOutcome>& out : outs) {
        out = Status::InvalidArgument(
            "fault schedule references a link outside the mesh");
      }
      return outs;
    }
    ends[fault.party][fault.peer] = std::make_unique<FaultInjectingChannel>(
        std::move(ends[fault.party][fault.peer]), fault.schedule);
  }

  const bool mesh = p > 2 ||
                    parties[0].job.scheme == PartitionScheme::kMultiparty;
  std::vector<std::thread> threads;
  threads.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      std::vector<Channel*> links(p, nullptr);
      for (size_t j = 0; j < p; ++j) {
        if (j != i) links[j] = ends[i][j].get();
      }
      // Arm the job's deadline for session establishment as well: a fault
      // that fires during the key exchange must still surface as a named
      // error. PartyRuntime::Run re-arms (and finally restores) the same
      // deadline for the job rounds.
      const int establish_deadline_ms =
          parties[i].job.options.round_deadline_ms > 0
              ? parties[i].job.options.round_deadline_ms
              : -1;
      for (Channel* link : links) {
        if (link != nullptr) link->set_recv_deadline_ms(establish_deadline_ms);
      }
      Result<PartyRuntime> runtime =
          mesh ? PartyRuntime::ConnectMesh(links, i, SecureRng(parties[i].seed),
                                           smc)
               : PartyRuntime::Connect(*links[1 - i], SecureRng(parties[i].seed),
                                       smc);
      for (Channel* link : links) {
        if (link != nullptr) link->set_recv_deadline_ms(-1);
      }
      if (runtime.ok()) {
        outs[i] = runtime->Run(parties[i].job);
      } else {
        outs[i] = runtime.status();
      }
      // Close all of this party's ends so no peer blocks forever on a
      // party that already returned.
      for (Channel* link : links) {
        if (link != nullptr) link->Close();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return outs;
}

Result<TwoPartyOutcome> ExecuteHorizontal(const Dataset& alice_points,
                                          const Dataset& bob_points,
                                          const ExecutionConfig& config) {
  return RunPairJobs(
      ClusteringJob::Horizontal(alice_points, PartyRole::kAlice,
                                config.protocol),
      ClusteringJob::Horizontal(bob_points, PartyRole::kBob, config.protocol),
      config);
}

Result<TwoPartyOutcome> ExecuteVertical(const VerticalPartition& partition,
                                        const ExecutionConfig& config) {
  return RunPairJobs(
      ClusteringJob::Vertical(partition.alice, PartyRole::kAlice,
                              config.protocol),
      ClusteringJob::Vertical(partition.bob, PartyRole::kBob,
                              config.protocol),
      config);
}

Result<TwoPartyOutcome> ExecuteArbitrary(const ArbitraryPartition& partition,
                                         const ExecutionConfig& config) {
  return RunPairJobs(
      ClusteringJob::Arbitrary(partition.alice, PartyRole::kAlice,
                               config.protocol),
      ClusteringJob::Arbitrary(partition.bob, PartyRole::kBob,
                               config.protocol),
      config);
}

}  // namespace ppdbscan
