#include "smc/membership.h"

#include <algorithm>

#include "bigint/codec.h"
#include "common/thread_pool.h"
#include "net/message.h"

namespace ppdbscan {

namespace {

/// Zero-sum masks over Z_n (the HDP masking step): m uniform values with
/// Σr_j = 0 (mod n).
std::vector<BigInt> ZeroSumMasks(SecureRng& rng, size_t m, const BigInt& n) {
  std::vector<BigInt> masks(m);
  BigInt sum;
  for (size_t j = 0; j + 1 < m; ++j) {
    masks[j] = BigInt::RandomBelow(rng, n);
    sum += masks[j];
  }
  masks[m - 1] = (-sum).Mod(n);
  return masks;
}

/// Number of queries per flight so one kMshResponse frame carries at most
/// kMshMaxCiphersPerFlight ciphers. Both sides derive this from the public
/// sizes, so the flight schedule never desyncs.
size_t QueriesPerFlight(size_t count, size_t dims) {
  const size_t per_query = std::max<size_t>(1, count * dims);
  return std::max<size_t>(1, kMshMaxCiphersPerFlight / per_query);
}

}  // namespace

Result<std::vector<size_t>> MembershipBatchDriver(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const std::vector<std::vector<int64_t>>& queries, int64_t eps_squared,
    SecureRng& rng) {
  const size_t q_count = queries.size();
  const size_t dims = q_count == 0 ? 0 : queries[0].size();
  for (const std::vector<int64_t>& q : queries) {
    if (q.size() != dims) {
      return Status::InvalidArgument(
          "membership queries must share one dimensionality");
    }
  }

  ByteWriter begin;
  begin.PutU32(static_cast<uint32_t>(q_count));
  begin.PutU32(static_cast<uint32_t>(dims));
  PPD_RETURN_IF_ERROR(SendMessage(channel, kMshBegin, begin));
  std::vector<size_t> counts(q_count, 0);
  if (q_count == 0) return counts;

  const PaillierContext& peer = session.peer_paillier();
  const BigInt& n = peer.pub().n;

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, kMshCiphers));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t peer_dims, reader.GetU32());
  if (peer_dims != dims) {
    return AbortPeer(channel,
                     Status::DataLoss("membership dimension mismatch"),
                     "membership dimension mismatch");
  }
  const size_t per_query = size_t{count} * dims;
  if (per_query > reader.remaining() / 5) {
    return AbortPeer(channel,
                     Status::DataLoss("membership cipher payload truncated"),
                     "membership payload truncated");
  }
  std::vector<BigInt> ciphers;
  ciphers.reserve(per_query);
  for (size_t i = 0; i < per_query; ++i) {
    PPD_ASSIGN_OR_RETURN(BigInt cipher, ReadBigInt(reader));
    if (!peer.IsValidCiphertext(cipher)) {
      return AbortPeer(channel, Status::DataLoss("membership cipher invalid"),
                       "membership cipher invalid");
    }
    ciphers.push_back(std::move(cipher));
  }
  if (!reader.Done()) {
    return AbortPeer(channel,
                     Status::DataLoss("trailing membership cipher bytes"),
                     "membership trailing bytes");
  }
  if (count == 0) return counts;  // nothing to compare against

  // E(y)^k for k < 0 would exponentiate by the full-width k mod n once per
  // query. Instead invert each cipher once, only in the columns where some
  // query is negative, and raise E(y)⁻¹ = E(−y) to |k|.
  std::vector<bool> negative_column(dims, false);
  for (const std::vector<int64_t>& q : queries) {
    for (size_t j = 0; j < dims; ++j) {
      if (q[j] < 0) negative_column[j] = true;
    }
  }
  std::vector<BigInt> negated(per_query);
  std::vector<uint8_t> not_invertible(per_query, 0);
  ParallelFor(per_query, [&](size_t i) {
    if (!negative_column[i % dims]) return;
    Result<BigInt> inverse = peer.Negate(ciphers[i]);
    if (inverse.ok()) {
      negated[i] = std::move(inverse).value();
    } else {
      not_invertible[i] = 1;
    }
  });
  if (std::find(not_invertible.begin(), not_invertible.end(), 1) !=
      not_invertible.end()) {
    return AbortPeer(channel,
                     Status::DataLoss("membership cipher not invertible"),
                     "membership cipher not invertible");
  }

  // S_A per query, reused across that query's comparisons.
  std::vector<BigInt> s_a(q_count);
  for (size_t q = 0; q < q_count; ++q) {
    for (int64_t c : queries[q]) s_a[q] += BigInt(c) * BigInt(c);
  }

  const BigInt threshold(eps_squared);
  const size_t flight = QueriesPerFlight(count, dims);
  for (size_t q0 = 0; q0 < q_count; q0 += flight) {
    const size_t qn = std::min(flight, q_count - q0);
    const size_t total = qn * per_query;
    // Masks drawn sequentially (rng is not thread-safe), products fanned
    // across the pool — the HDP batch pattern with the responder's one
    // cipher matrix reused per query.
    std::vector<BigInt> masks;
    masks.reserve(total);
    for (size_t qi = 0; qi < qn; ++qi) {
      for (uint32_t k = 0; k < count; ++k) {
        std::vector<BigInt> point_masks = ZeroSumMasks(rng, dims, n);
        for (size_t j = 0; j < dims; ++j) {
          masks.push_back(std::move(point_masks[j]));
        }
      }
    }
    std::vector<BigInt> magnitudes(qn * dims);
    for (size_t qi = 0; qi < qn; ++qi) {
      for (size_t j = 0; j < dims; ++j) {
        magnitudes[qi * dims + j] = BigInt(queries[q0 + qi][j]).Abs();
      }
    }
    std::vector<BigInt> products(total);
    ParallelFor(total, [&](size_t i) {
      const size_t qi = i / per_query;
      const size_t j = i % dims;
      const size_t c = i % per_query;
      const bool negative = queries[q0 + qi][j] < 0;
      products[i] = peer.MulPlain(negative ? negated[c] : ciphers[c],
                                  magnitudes[qi * dims + j]);
    });
    // A cipher that is not a unit mod n² can power to 0, which no
    // homomorphic step accepts: reject the peer's matrix instead.
    for (const BigInt& product : products) {
      if (!peer.IsValidCiphertext(product)) {
        return AbortPeer(channel,
                         Status::DataLoss("membership cipher not invertible"),
                         "membership cipher not invertible");
      }
    }
    PPD_ASSIGN_OR_RETURN(std::vector<BigInt> mask_ciphers,
                         peer.EncryptBatch(masks, rng));
    std::vector<BigInt> blinded = peer.AddBatch(products, mask_ciphers);
    ByteWriter out;
    for (const BigInt& c : blinded) WriteBigInt(out, c);
    PPD_RETURN_IF_ERROR(SendMessage(channel, kMshResponse, out));

    std::vector<BigInt> xqs;
    xqs.reserve(qn * count);
    for (size_t qi = 0; qi < qn; ++qi) {
      for (uint32_t k = 0; k < count; ++k) xqs.push_back(s_a[q0 + qi]);
    }
    PPD_ASSIGN_OR_RETURN(
        std::vector<bool> bits,
        comparator.QuerierCompareBatch(channel, xqs, threshold));
    for (size_t qi = 0; qi < qn; ++qi) {
      for (uint32_t k = 0; k < count; ++k) {
        if (bits[qi * count + k]) ++counts[q0 + qi];
      }
    }
  }
  return counts;
}

Status MembershipBatchResponder(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const std::vector<std::vector<int64_t>>& points, SecureRng& rng) {
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> begin_payload,
                       ExpectMessage(channel, kMshBegin));
  ByteReader begin_reader(begin_payload);
  PPD_ASSIGN_OR_RETURN(uint32_t q_count, begin_reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t q_dims, begin_reader.GetU32());
  if (!begin_reader.Done()) {
    return Status::DataLoss("trailing membership begin bytes");
  }
  if (q_count == 0) return Status::Ok();

  const PaillierContext& ctx = session.own_paillier_ctx();
  const BigInt& n = ctx.pub().n;
  const size_t count = points.size();
  const size_t dims = count == 0 ? q_dims : points[0].size();
  if (count != 0 && q_dims != dims) {
    return AbortPeer(channel,
                     Status::DataLoss("membership dimension mismatch"),
                     "membership dimension mismatch");
  }

  // Encrypt the coordinate matrix ONCE; every query reuses it.
  std::vector<BigInt> plain;
  plain.reserve(count * dims);
  for (const std::vector<int64_t>& y : points) {
    for (size_t j = 0; j < dims; ++j) plain.push_back(BigInt(y[j]));
  }
  std::vector<BigInt> cipher_matrix;
  if (PaillierRandomizerPool* rpool = session.own_randomizer_pool()) {
    PPD_ASSIGN_OR_RETURN(cipher_matrix, rpool->EncryptSignedBatch(plain));
  } else {
    PPD_ASSIGN_OR_RETURN(cipher_matrix, ctx.EncryptSignedBatch(plain, rng));
  }
  ByteWriter ciphers;
  ciphers.PutU32(static_cast<uint32_t>(count));
  ciphers.PutU32(static_cast<uint32_t>(dims));
  for (const BigInt& c : cipher_matrix) WriteBigInt(ciphers, c);
  PPD_RETURN_IF_ERROR(SendMessage(channel, kMshCiphers, ciphers));
  if (count == 0) return Status::Ok();

  std::vector<BigInt> sum_y2(count);
  for (size_t k = 0; k < count; ++k) {
    for (int64_t c : points[k]) sum_y2[k] += BigInt(c) * BigInt(c);
  }

  const size_t per_query = count * dims;
  const size_t flight = QueriesPerFlight(count, dims);
  for (size_t q0 = 0; q0 < q_count; q0 += flight) {
    const size_t qn = std::min(flight, size_t{q_count} - q0);
    const size_t total = qn * per_query;
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, kMshResponse));
    ByteReader reader(payload);
    if (total > reader.remaining() / 5) {
      return AbortPeer(channel,
                       Status::DataLoss("membership response truncated"),
                       "membership response truncated");
    }
    std::vector<BigInt> response;
    response.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      Result<BigInt> read = ReadBigInt(reader);
      if (!read.ok()) {
        return AbortPeer(channel,
                         Status::DataLoss("membership response unreadable: " +
                                          read.status().message()),
                         "membership response unreadable");
      }
      BigInt cipher = std::move(read).value();
      if (!ctx.IsValidCiphertext(cipher)) {
        return AbortPeer(
            channel, Status::DataLoss("membership response cipher invalid"),
            "membership response cipher invalid");
      }
      response.push_back(std::move(cipher));
    }
    if (!reader.Done()) {
      return AbortPeer(channel,
                       Status::DataLoss("trailing membership response bytes"),
                       "membership response trailing bytes");
    }
    PPD_ASSIGN_OR_RETURN(std::vector<BigInt> us,
                         session.own_paillier().DecryptBatch(response));
    std::vector<BigInt> s_b(qn * count);
    for (size_t qi = 0; qi < qn; ++qi) {
      for (size_t k = 0; k < count; ++k) {
        BigInt sum_u;
        for (size_t j = 0; j < dims; ++j) {
          sum_u += us[qi * per_query + k * dims + j];
        }
        s_b[qi * count + k] =
            ctx.DecodeSigned((sum_y2[k] - BigInt(2) * sum_u).Mod(n));
      }
      // Fresh share permutation PER QUERY: the driver's query share is the
      // same for all of a query's comparisons, so shuffling our shares
      // permutes its result bits without changing the count — it cannot
      // link bit positions to stable points across queries.
      BigInt* base = &s_b[qi * count];
      for (size_t i = count; i > 1; --i) {
        size_t j = rng.UniformU64(i);
        std::swap(base[i - 1], base[j]);
      }
    }
    PPD_RETURN_IF_ERROR(comparator.PeerAssistBatch(channel, s_b));
  }
  return Status::Ok();
}

}  // namespace ppdbscan
