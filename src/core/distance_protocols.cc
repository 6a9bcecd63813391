#include "core/distance_protocols.h"

#include "bigint/codec.h"
#include "core/wire.h"
#include "net/message.h"
#include "smc/inner_product.h"

namespace ppdbscan {

std::vector<size_t> RandomPermutation(SecureRng& rng, size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = rng.UniformU64(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Result<size_t> HdpBatchDriver(Channel& channel, const SmcSession& session,
                              SecureComparator& comparator,
                              const std::vector<int64_t>& x,
                              int64_t eps_squared, SecureRng& rng,
                              std::vector<bool>* bits) {
  const PaillierContext& peer = session.peer_paillier();
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kHdpCiphers));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t dims, reader.GetU32());
  if (dims != x.size()) {
    return AbortPeer(channel,
                     Status::DataLoss("HDP dimension mismatch"),
                     "hdp dimension mismatch");
  }
  const size_t total = size_t{count} * dims;
  // count comes off the wire: reject before reserving when the payload
  // cannot possibly hold that many ciphers (>= 5 bytes each serialized).
  if (total > reader.remaining() / 5) {
    return AbortPeer(channel, Status::DataLoss("HDP payload truncated"),
                     "hdp payload truncated");
  }
  std::vector<BigInt> ciphers;
  ciphers.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    PPD_ASSIGN_OR_RETURN(BigInt cipher, ReadBigInt(reader));
    if (!peer.IsValidCiphertext(cipher)) {
      return AbortPeer(channel, Status::DataLoss("HDP cipher invalid"),
                       "hdp cipher invalid");
    }
    ciphers.push_back(std::move(cipher));
  }
  if (!reader.Done()) {
    return AbortPeer(channel, Status::DataLoss("trailing HDP bytes"),
                     "hdp trailing bytes");
  }
  // Complete the Multiplication Protocol as the Helper, one folded cipher
  // E(x·y_k) per responder point (smc/inner_product.h).
  Result<InnerProductCiphers> matrix =
      InnerProductCiphers::Create(peer, std::move(ciphers), count, dims);
  if (!matrix.ok()) {
    return AbortPeer(channel, Status::DataLoss("HDP cipher not invertible"),
                     "hdp cipher not invertible");
  }
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> products,
                       matrix->Products({x}, 0, 1, rng));
  ByteWriter out;
  for (const BigInt& c : products) WriteBigInt(out, c);
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kHdpResponse, out));

  // S_A = Σ x_j², then one comparison per responder point, batched so
  // backends with non-interactive rounds run their cryptography through
  // the Paillier batch APIs. All of them share S_A: one comparator group.
  BigInt s_a;
  for (int64_t c : x) s_a += BigInt(c) * BigInt(c);
  const BigInt threshold(eps_squared);
  std::vector<BigInt> xqs(count, s_a);
  PPD_ASSIGN_OR_RETURN(
      std::vector<bool> cmp,
      comparator.QuerierCompareBatch(channel, xqs, threshold, count));
  size_t in_range = 0;
  if (bits != nullptr) bits->assign(count, false);
  for (uint32_t k = 0; k < count; ++k) {
    if (cmp[k]) {
      ++in_range;
      if (bits != nullptr) (*bits)[k] = true;
    }
  }
  return in_range;
}

Status HdpBatchResponder(Channel& channel, const SmcSession& session,
                         SecureComparator& comparator, const Dataset& own,
                         SecureRng& rng, const std::vector<size_t>* subset,
                         bool permute) {
  const PaillierContext& ctx = session.own_paillier_ctx();
  const BigInt& n = ctx.pub().n;

  std::vector<size_t> order;
  if (subset != nullptr) {
    order = *subset;
  } else {
    order.resize(own.size());
    for (size_t i = 0; i < own.size(); ++i) order[i] = i;
  }
  if (permute) {
    std::vector<size_t> perm = RandomPermutation(rng, order.size());
    std::vector<size_t> shuffled(order.size());
    for (size_t i = 0; i < order.size(); ++i) shuffled[i] = order[perm[i]];
    order = std::move(shuffled);
  }

  // Encrypt the whole |order| × dims coordinate matrix as one batch so the
  // per-coordinate exponentiations fan across the thread pool. With a
  // session randomizer pool the r^n factors were precomputed during
  // network waits and the batch runs at online (multiplication-only) cost.
  const size_t dims = own.dims();
  std::vector<BigInt> plain;
  plain.reserve(order.size() * dims);
  for (size_t idx : order) {
    const std::vector<int64_t>& y = own.point(idx);
    for (size_t j = 0; j < dims; ++j) plain.push_back(BigInt(y[j]));
  }
  std::vector<BigInt> cipher_matrix;
  if (PaillierRandomizerPool* rpool = session.own_randomizer_pool()) {
    PPD_ASSIGN_OR_RETURN(cipher_matrix, rpool->EncryptSignedBatch(plain));
  } else {
    PPD_ASSIGN_OR_RETURN(cipher_matrix, ctx.EncryptSignedBatch(plain, rng));
  }
  ByteWriter ciphers;
  ciphers.PutU32(static_cast<uint32_t>(order.size()));
  ciphers.PutU32(static_cast<uint32_t>(dims));
  for (const BigInt& c : cipher_matrix) WriteBigInt(ciphers, c);
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kHdpCiphers, ciphers));

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kHdpResponse));
  ByteReader reader(payload);
  std::vector<BigInt> response;
  response.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    PPD_ASSIGN_OR_RETURN(BigInt cipher, ReadBigInt(reader));
    if (!ctx.IsValidCiphertext(cipher)) {
      return AbortPeer(channel,
                       Status::DataLoss("HDP response cipher invalid"),
                       "hdp response cipher invalid");
    }
    response.push_back(std::move(cipher));
  }
  if (!reader.Done()) {
    return AbortPeer(channel, Status::DataLoss("trailing HDP response bytes"),
                     "hdp response trailing bytes");
  }
  // u_k = x·y_k, the one value this party learns per point.
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> us,
                       session.own_paillier().DecryptBatch(response));
  std::vector<BigInt> s_b(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    const std::vector<int64_t>& y = own.point(order[k]);
    BigInt sum_y2;
    for (int64_t c : y) sum_y2 += BigInt(c) * BigInt(c);
    s_b[k] = ctx.DecodeSigned((sum_y2 - BigInt(2) * us[k]).Mod(n));
  }

  return comparator.PeerAssistBatch(channel, s_b, s_b.size());
}

namespace {

/// Attribute classification for one arbitrary-partition record pair, from
/// one party's perspective. Ownership masks are public, so both parties
/// compute identical classifications.
struct PairSplit {
  std::vector<size_t> cross;  // attrs where the two values have different owners
  int64_t local_part = 0;     // Σ (v1 - v2)² over attrs fully owned by me
  int64_t cross_squares = 0;  // Σ a² over my halves of cross attrs
};

PairSplit SplitPair(const ArbitraryPartyView& own, size_t xi, size_t yi) {
  PairSplit split;
  for (size_t t = 0; t < own.dims; ++t) {
    bool mine_x = own.owned[xi][t] != 0;
    bool mine_y = own.owned[yi][t] != 0;
    if (mine_x == mine_y) {
      if (mine_x) {
        int64_t d = own.values[xi][t] - own.values[yi][t];
        split.local_part += d * d;
      }
      continue;
    }
    split.cross.push_back(t);
    int64_t a = mine_x ? own.values[xi][t] : own.values[yi][t];
    split.cross_squares += a * a;
  }
  return split;
}

}  // namespace

Result<bool> ArbitraryPairDriver(Channel& channel, const SmcSession& session,
                                 SecureComparator& comparator,
                                 const ArbitraryPartyView& own, size_t xi,
                                 size_t yi, int64_t eps_squared,
                                 SecureRng& rng) {
  const PaillierContext& peer = session.peer_paillier();
  PairSplit split = SplitPair(own, xi, yi);

  if (!split.cross.empty()) {
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kArbPairCiphers));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
    if (count != split.cross.size()) {
      return AbortPeer(channel,
                       Status::DataLoss("cross attribute count mismatch"),
                       "arbitrary cross count mismatch");
    }
    // Same shape as HDP: one folded cipher E(Σ_t a_t·b_t) for the pair.
    std::vector<BigInt> ciphers;
    std::vector<int64_t> scalars;
    ciphers.reserve(split.cross.size());
    scalars.reserve(split.cross.size());
    for (size_t c = 0; c < split.cross.size(); ++c) {
      PPD_ASSIGN_OR_RETURN(BigInt cipher, ReadBigInt(reader));
      if (!peer.IsValidCiphertext(cipher)) {
        return AbortPeer(channel, Status::DataLoss("cross cipher invalid"),
                         "arbitrary cross cipher invalid");
      }
      ciphers.push_back(std::move(cipher));
      size_t t = split.cross[c];
      scalars.push_back(own.owned[xi][t] != 0 ? own.values[xi][t]
                                              : own.values[yi][t]);
    }
    if (!reader.Done()) {
      return AbortPeer(channel, Status::DataLoss("trailing cross bytes"),
                       "arbitrary cross trailing bytes");
    }
    Result<InnerProductCiphers> matrix = InnerProductCiphers::Create(
        peer, std::move(ciphers), 1, split.cross.size());
    if (!matrix.ok()) {
      return AbortPeer(channel,
                       Status::DataLoss("cross cipher not invertible"),
                       "arbitrary cross cipher not invertible");
    }
    PPD_ASSIGN_OR_RETURN(std::vector<BigInt> product,
                         matrix->Products({scalars}, 0, 1, rng));
    ByteWriter out;
    WriteBigInt(out, product[0]);
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kArbPairResponse, out));
  }

  BigInt s_alice = BigInt(split.local_part) + BigInt(split.cross_squares);
  return comparator.QuerierCompare(channel, s_alice, BigInt(eps_squared));
}

Status ArbitraryPairResponder(Channel& channel, const SmcSession& session,
                              SecureComparator& comparator,
                              const ArbitraryPartyView& own, size_t xi,
                              size_t yi, SecureRng& rng) {
  const PaillierContext& ctx = session.own_paillier_ctx();
  const BigInt& n = ctx.pub().n;
  PairSplit split = SplitPair(own, xi, yi);

  BigInt cross_part;
  if (!split.cross.empty()) {
    // Batch the cross-attribute encryptions (pooled factors when the
    // session carries a randomizer pool) and the response decryptions;
    // the per-message wire layout is unchanged.
    std::vector<BigInt> plain;
    plain.reserve(split.cross.size());
    for (size_t t : split.cross) {
      int64_t b = own.owned[xi][t] != 0 ? own.values[xi][t]
                                        : own.values[yi][t];
      plain.push_back(BigInt(b));
    }
    std::vector<BigInt> cipher_vec;
    if (PaillierRandomizerPool* rpool = session.own_randomizer_pool()) {
      PPD_ASSIGN_OR_RETURN(cipher_vec, rpool->EncryptSignedBatch(plain));
    } else {
      PPD_ASSIGN_OR_RETURN(cipher_vec, ctx.EncryptSignedBatch(plain, rng));
    }
    ByteWriter ciphers;
    ciphers.PutU32(static_cast<uint32_t>(split.cross.size()));
    for (const BigInt& c : cipher_vec) WriteBigInt(ciphers, c);
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kArbPairCiphers, ciphers));

    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kArbPairResponse));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(BigInt response, ReadBigInt(reader));
    if (!ctx.IsValidCiphertext(response)) {
      return AbortPeer(channel,
                       Status::DataLoss("cross response cipher invalid"),
                       "arbitrary cross response invalid");
    }
    if (!reader.Done()) {
      return AbortPeer(channel, Status::DataLoss("trailing pair bytes"),
                       "arbitrary pair trailing bytes");
    }
    // u = Σ_t a_t·b_t over the cross attributes, one value per pair.
    PPD_ASSIGN_OR_RETURN(BigInt u, session.own_paillier().Decrypt(response));
    cross_part = ctx.DecodeSigned(
        (BigInt(split.cross_squares) - BigInt(2) * u).Mod(n));
  }

  BigInt s_bob = BigInt(split.local_part) + cross_part;
  return comparator.PeerAssist(channel, s_bob);
}

}  // namespace ppdbscan
