#ifndef PPDBSCAN_TESTS_TEST_UTIL_H_
#define PPDBSCAN_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/memory_channel.h"
#include "smc/session.h"

namespace ppdbscan {
namespace testing_util {

/// A connected pair of SMC sessions over an in-process channel, with
/// per-party deterministic RNGs. Key generation is the slow part of most
/// protocol tests, so suites share one pair via static SetUpTestSuite.
struct SessionPair {
  std::unique_ptr<MemoryChannel> alice_channel;
  std::unique_ptr<MemoryChannel> bob_channel;
  std::unique_ptr<SmcSession> alice;
  std::unique_ptr<SmcSession> bob;
  std::unique_ptr<SecureRng> alice_rng;
  std::unique_ptr<SecureRng> bob_rng;
};

/// Builds a SessionPair with the given key sizes. Aborts on failure (test
/// environments only).
inline SessionPair MakeSessionPair(size_t paillier_bits = 256,
                                   size_t rsa_bits = 256,
                                   uint64_t seed = 1234) {
  SessionPair pair;
  auto [a, b] = MemoryChannel::CreatePair();
  pair.alice_channel = std::move(a);
  pair.bob_channel = std::move(b);
  pair.alice_rng = std::make_unique<SecureRng>(seed);
  pair.bob_rng = std::make_unique<SecureRng>(seed + 1);
  SmcOptions options;
  options.paillier_bits = paillier_bits;
  options.rsa_bits = rsa_bits;
  Result<SmcSession> alice = Status::Internal("unset");
  Result<SmcSession> bob = Status::Internal("unset");
  std::thread ta([&] {
    alice = SmcSession::Establish(*pair.alice_channel, *pair.alice_rng,
                                  options);
  });
  std::thread tb([&] {
    bob = SmcSession::Establish(*pair.bob_channel, *pair.bob_rng, options);
  });
  ta.join();
  tb.join();
  PPD_CHECK_MSG(alice.ok() && bob.ok(), "session establishment failed");
  pair.alice = std::make_unique<SmcSession>(std::move(alice).value());
  pair.bob = std::make_unique<SmcSession>(std::move(bob).value());
  return pair;
}

/// Runs the two party bodies on two threads and returns their outcomes.
/// Each body receives its own channel/session/rng from the pair.
///
/// With `close_on_return` (single-use pairs only — it poisons the channel
/// for later calls), each party closes its channel end as soon as its body
/// returns, mirroring the production harness (RunProtocol in core/run.cc):
/// a peer blocked in Recv then observes a clean close instead of hanging
/// when one side bails out early with an error.
template <typename A, typename B>
std::pair<A, B> RunTwoParty(SessionPair& pair,
                            const std::function<A(Channel&, const SmcSession&,
                                                  SecureRng&)>& alice_body,
                            const std::function<B(Channel&, const SmcSession&,
                                                  SecureRng&)>& bob_body,
                            bool close_on_return = false) {
  std::unique_ptr<A> alice_out;
  std::unique_ptr<B> bob_out;
  std::thread ta([&] {
    alice_out = std::make_unique<A>(alice_body(
        *pair.alice_channel, *pair.alice, *pair.alice_rng));
    if (close_on_return) pair.alice_channel->Close();
  });
  std::thread tb([&] {
    bob_out = std::make_unique<B>(
        bob_body(*pair.bob_channel, *pair.bob, *pair.bob_rng));
    if (close_on_return) pair.bob_channel->Close();
  });
  ta.join();
  tb.join();
  return {std::move(*alice_out), std::move(*bob_out)};
}

/// SessionPair's N-party (N >= 3) sibling: parties in ring order (the
/// public driver order of the multi-party protocol) wired with a full
/// pairwise mesh of in-process channels, one established SMC session and
/// one deterministic RNG per party per link — the exact shape
/// RunHorizontalDbscan consumes.
struct SessionRing {
  size_t parties = 0;
  /// channels[i][j] = party i's endpoint of the (i, j) link; null on the
  /// diagonal.
  std::vector<std::vector<std::unique_ptr<MemoryChannel>>> channels;
  /// sessions[i][j] = party i's session with party j; null on the diagonal.
  std::vector<std::vector<std::unique_ptr<SmcSession>>> sessions;
  std::vector<std::unique_ptr<SecureRng>> rngs;

  /// Party i's link row in the `links[j]` layout the protocol expects.
  std::vector<Channel*> LinksFor(size_t i) const {
    std::vector<Channel*> links(parties, nullptr);
    for (size_t j = 0; j < parties; ++j) {
      if (j != i) links[j] = channels[i][j].get();
    }
    return links;
  }

  std::vector<const SmcSession*> SessionsFor(size_t i) const {
    std::vector<const SmcSession*> out(parties, nullptr);
    for (size_t j = 0; j < parties; ++j) {
      if (j != i) out[j] = sessions[i][j].get();
    }
    return out;
  }
};

/// Builds a SessionRing with the given key sizes. Pairwise key exchange
/// runs every (a, b) pair in the same public order on one thread per party
/// (mirroring PartyRuntime::ConnectMesh), then traffic counters are
/// reset so tests observe protocol bytes only. Aborts on failure (test
/// environments only).
inline SessionRing MakeSessionRing(size_t parties, size_t paillier_bits = 256,
                                   size_t rsa_bits = 256,
                                   uint64_t seed = 1234) {
  PPD_CHECK_MSG(parties >= 2, "a session ring needs >= 2 parties");
  SessionRing ring;
  ring.parties = parties;
  ring.channels.resize(parties);
  ring.sessions.resize(parties);
  for (size_t i = 0; i < parties; ++i) {
    ring.channels[i].resize(parties);
    ring.sessions[i].resize(parties);
    ring.rngs.push_back(std::make_unique<SecureRng>(seed + i));
  }
  for (size_t i = 0; i < parties; ++i) {
    for (size_t j = i + 1; j < parties; ++j) {
      auto [a, b] = MemoryChannel::CreatePair();
      ring.channels[i][j] = std::move(a);
      ring.channels[j][i] = std::move(b);
    }
  }

  SmcOptions options;
  options.paillier_bits = paillier_bits;
  options.rsa_bits = rsa_bits;
  std::vector<std::vector<std::unique_ptr<Result<SmcSession>>>> established(
      parties);
  for (size_t i = 0; i < parties; ++i) {
    for (size_t j = 0; j < parties; ++j) {
      established[i].push_back(
          std::make_unique<Result<SmcSession>>(Status::Internal("unset")));
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(parties);
  for (size_t i = 0; i < parties; ++i) {
    threads.emplace_back([&, i] {
      for (size_t a = 0; a < parties; ++a) {
        for (size_t b = a + 1; b < parties; ++b) {
          if (a != i && b != i) continue;
          const size_t peer = a == i ? b : a;
          *established[i][peer] = SmcSession::Establish(
              *ring.channels[i][peer], *ring.rngs[i], options);
          if (!established[i][peer]->ok()) {
            // Unblock peers still waiting on this party so the joins below
            // finish and the failure aborts instead of deadlocking.
            for (size_t j = 0; j < parties; ++j) {
              if (j != i) ring.channels[i][j]->Close();
            }
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < parties; ++i) {
    for (size_t j = 0; j < parties; ++j) {
      if (i == j) continue;
      PPD_CHECK_MSG(established[i][j]->ok(),
                    "ring session establishment failed");
      ring.sessions[i][j] = std::make_unique<SmcSession>(
          std::move(*established[i][j]).value());
      ring.channels[i][j]->ResetStats();
    }
  }
  return ring;
}

/// Runs one body per party on its own thread and returns the outputs in
/// party order. Each body gets its party index plus the ring itself (use
/// LinksFor/SessionsFor/rngs). On `close_on_return`, a finishing party
/// closes all of its channel ends (single-use rings only), so peers
/// blocked in Recv observe a clean close instead of hanging.
template <typename T>
std::vector<T> RunParties(SessionRing& ring,
                          const std::function<T(size_t, SessionRing&)>& body,
                          bool close_on_return = false) {
  std::vector<std::unique_ptr<T>> outputs(ring.parties);
  std::vector<std::thread> threads;
  threads.reserve(ring.parties);
  for (size_t i = 0; i < ring.parties; ++i) {
    threads.emplace_back([&, i] {
      outputs[i] = std::make_unique<T>(body(i, ring));
      if (close_on_return) {
        for (size_t j = 0; j < ring.parties; ++j) {
          if (j != i) ring.channels[i][j]->Close();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<T> results;
  results.reserve(ring.parties);
  for (auto& out : outputs) results.push_back(std::move(*out));
  return results;
}

}  // namespace testing_util
}  // namespace ppdbscan

#endif  // PPDBSCAN_TESTS_TEST_UTIL_H_
