#include "machine/reliable.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"
#include "util/log.hpp"

namespace capsp {
namespace {

constexpr std::uint64_t kChecksumMask = (std::uint64_t{1} << 48) - 1;
constexpr double kMaxExactDouble = 9007199254740992.0;  // 2^53

/// True when `v` round-trips exactly through a non-negative int64 small
/// enough for a double (a corrupted header word usually does not).
bool is_exact_count(double v) {
  return std::isfinite(v) && v >= 0 && v < kMaxExactDouble &&
         v == std::floor(v);
}

// XXH64's primes (xxhash_spec.md).
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

/// XXH64's round: a bijection of `acc` for any word.  The rotation moves
/// a difference in the top bits down before the next multiply, so two
/// top-bit flips one stripe apart in the same lane do not cancel, as
/// they would under a plain (acc ^ word) * odd.
constexpr std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

constexpr std::uint64_t xxh_merge(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ xxh_round(0, lane)) * kPrime1 + kPrime4;
}

std::uint64_t word_at(std::span<const Dist> payload, std::size_t i) {
  return std::bit_cast<std::uint64_t>(payload[i]);
}

}  // namespace

// XXH64 over the payload words, seeded with seq: four lanes take one word
// each per stripe of four, so their multiplies run in parallel.
std::uint64_t frame_checksum(std::int64_t seq,
                             std::span<const Dist> payload) {
  const auto seed = static_cast<std::uint64_t>(seq);
  const std::size_t words = payload.size();
  std::size_t i = 0;
  std::uint64_t hash = seed + kPrime5;
  if (words >= 4) {
    std::uint64_t a = seed + kPrime1 + kPrime2, b = seed + kPrime2;
    std::uint64_t c = seed, d = seed - kPrime1;
    for (; i + 4 <= words; i += 4) {
      a = xxh_round(a, word_at(payload, i));
      b = xxh_round(b, word_at(payload, i + 1));
      c = xxh_round(c, word_at(payload, i + 2));
      d = xxh_round(d, word_at(payload, i + 3));
    }
    hash = std::rotl(a, 1) + std::rotl(b, 7) + std::rotl(c, 12) +
           std::rotl(d, 18);
    for (const std::uint64_t lane : {a, b, c, d}) hash = xxh_merge(hash, lane);
  }
  hash += 8 * static_cast<std::uint64_t>(words);  // the length in bytes
  for (; i < words; ++i)
    hash = std::rotl(hash ^ xxh_round(0, word_at(payload, i)), 27) * kPrime1 +
           kPrime4;
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash & kChecksumMask;
}

std::vector<Dist> encode_frame(std::int64_t seq,
                               std::span<const Dist> payload) {
  CAPSP_CHECK_MSG(seq >= 0, "seq=" << seq);
  std::vector<Dist> frame;
  frame.reserve(static_cast<std::size_t>(kFrameHeaderWords) +
                payload.size());
  frame.push_back(static_cast<Dist>(seq));
  frame.push_back(static_cast<Dist>(frame_checksum(seq, payload)));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

DecodedFrame decode_frame(std::span<const Dist> frame) {
  DecodedFrame decoded;
  if (static_cast<std::int64_t>(frame.size()) < kFrameHeaderWords)
    return decoded;
  const double seq_word = frame[0];
  const double checksum_word = frame[1];
  if (!is_exact_count(seq_word) || !is_exact_count(checksum_word) ||
      checksum_word > static_cast<double>(kChecksumMask))
    return decoded;
  const auto seq = static_cast<std::int64_t>(seq_word);
  const auto payload = frame.subspan(static_cast<std::size_t>(kFrameHeaderWords));
  if (frame_checksum(seq, payload) !=
      static_cast<std::uint64_t>(checksum_word))
    return decoded;
  decoded.ok = true;
  decoded.seq = seq;
  decoded.payload.assign(payload.begin(), payload.end());
  return decoded;
}

void ReliableComm::send(RawLink& link, RankId dst, Tag tag,
                        std::span<const Dist> payload) {
  const std::int64_t seq = send_seq_[{dst, tag}]++;
  const Payload frame(encode_frame(seq, payload));
  double backoff = kBackoffLatency;
  for (int attempt = 0;; ++attempt) {
    ++stats_.frames_sent;
    if (attempt > 0) {
      ++stats_.retransmissions;
      CAPSP_LOG(kDebug, "machine.reliable.retransmit", {"dst", dst},
                {"tag", tag}, {"seq", seq}, {"attempt", attempt});
    }
    if (link.transmit(dst, tag, frame, attempt > 0)) {
      ++stats_.acks;
      link.charge(kAckLatency, kAckWords, "ack");
      return;
    }
    if (attempt >= kMaxRetransmissions) {
      ++stats_.give_ups;
      CAPSP_LOG(kWarn, "machine.reliable.give_up", {"dst", dst},
                {"tag", tag}, {"seq", seq},
                {"transmissions", attempt + 1});
      CAPSP_CHECK_MSG(false, "reliable send to rank "
                                 << dst << " (tag " << tag << ", seq " << seq
                                 << ") gave up after " << attempt + 1
                                 << " transmissions — unsurvivable fault "
                                    "plan?");
    }
    link.charge(backoff, 0, "backoff");
    backoff = std::min(2 * backoff, kBackoffLatencyCap);
  }
}

Payload ReliableComm::recv(RawLink& link, RankId src, Tag tag) {
  const StreamKey key{src, tag};
  std::int64_t& expected = recv_seq_[key];
  auto& buffer = pending_[key];
  for (;;) {
    if (const auto it = buffer.find(expected); it != buffer.end()) {
      Payload payload = std::move(it->second);
      buffer.erase(it);
      ++expected;
      return payload;
    }
    DecodedFrame frame = decode_frame(link.receive(src, tag).words());
    if (!frame.ok) {
      ++stats_.corrupt_rejected;  // the sender's link saw it too: a
      continue;                   // retransmission is already on its way
    }
    if (frame.seq < expected) {
      ++stats_.duplicates_dropped;
      continue;
    }
    if (frame.seq > expected) {
      ++stats_.reordered;
      buffer.emplace(frame.seq, Payload(std::move(frame.payload)));
      continue;
    }
    ++expected;
    return Payload(std::move(frame.payload));
  }
}

}  // namespace capsp
