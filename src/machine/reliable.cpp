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

void fnv_mix(std::uint64_t& hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ull;  // FNV-1a 64 prime
  }
}

}  // namespace

std::uint64_t frame_checksum(std::int64_t seq,
                             std::span<const Dist> payload) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  fnv_mix(hash, static_cast<std::uint64_t>(seq));
  for (const Dist d : payload) fnv_mix(hash, std::bit_cast<std::uint64_t>(d));
  return (hash ^ (hash >> 48)) & kChecksumMask;
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
  double backoff = options_.backoff_latency;
  const double backoff_cap = 64 * options_.backoff_latency;
  for (int attempt = 0;; ++attempt) {
    ++stats_.frames_sent;
    if (attempt > 0) {
      ++stats_.retransmissions;
      CAPSP_LOG(kDebug, "machine.reliable.retransmit", {"dst", dst},
                {"tag", tag}, {"seq", seq}, {"attempt", attempt});
    }
    if (link.transmit(dst, tag, frame, attempt > 0)) {
      ++stats_.acks;
      link.charge(options_.ack_latency, options_.ack_words, "ack");
      return;
    }
    if (attempt >= options_.max_retries) {
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
    backoff = std::min(2 * backoff, backoff_cap);
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
