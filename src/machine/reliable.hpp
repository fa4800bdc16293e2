// ReliableComm: a reliable-delivery protocol layer over the faulty
// transport (docs/robustness.md).
//
// The simulator's raw transport, under a FaultPlan, drops, duplicates,
// corrupts, and reorders messages.  ReliableComm restores exactly-once
// in-order delivery per (peer, tag) stream with the classic ingredients:
//
//   * sequence numbers   — every logical message is framed with a per-
//                          stream sequence number; the receiver delivers
//                          in order, buffers early frames, and discards
//                          duplicates;
//   * payload checksums  — a 48-bit FNV-1a checksum over the sequence
//                          number and payload; frames that fail it are
//                          rejected at the receiver (and the link layer
//                          reports the loss to the sender);
//   * ack + bounded retry with backoff
//                        — each physical transmission is link-layer
//                          acknowledged; a lost or corrupted frame is
//                          retransmitted up to max_retries times, with an
//                          exponentially growing backoff charge on the
//                          sender's logical clock.
//
// The link-layer acknowledgment is synchronous in simulation (the sender
// learns the fate of a transmission before its next operation, like NIC-
// level ARQ on a single hop), which keeps runs deterministic: the number
// of retransmissions depends only on the FaultPlan's seeded decisions,
// never on wall-clock timing.  Every retransmission, ack, and backoff is
// metered through the normal cost model, so CostReport::reliability plus
// the inflated (L, B) numbers quantify the price of reliability.
//
// The protocol state machine is transport-agnostic: it drives a RawLink,
// implemented by Comm over the real mailboxes and by scripted fakes in
// tests/test_reliable.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "machine/cost_model.hpp"
#include "semiring/dist.hpp"
#include "semiring/payload.hpp"

namespace capsp {

/// Tuning knobs for the reliability protocol.  The charges are in the
/// cost model's units (latency: messages, words: words).
struct ReliableOptions {
  /// Retransmissions allowed per frame before the sender gives up (a
  /// give-up throws: the plan was not survivable).
  int max_retries = 16;
  /// Clock charge for the link-layer ack of a delivered frame.
  double ack_latency = 1;
  double ack_words = 1;
  /// Clock charge for the first failed attempt; doubles per retry, capped
  /// at 64x (bounded exponential backoff).
  double backoff_latency = 1;
};

/// Words prepended to every payload on the wire: [seq, checksum].
inline constexpr std::int64_t kFrameHeaderWords = 2;

/// 48-bit FNV-1a over the sequence number and payload bit patterns.
/// 48 bits so the checksum is exactly representable as a double (the
/// wire format carries doubles only).
std::uint64_t frame_checksum(std::int64_t seq, std::span<const Dist> payload);

/// [seq, checksum, payload...] — both header words exact in a double.
std::vector<Dist> encode_frame(std::int64_t seq,
                               std::span<const Dist> payload);

struct DecodedFrame {
  bool ok = false;  ///< header well-formed and checksum matches
  std::int64_t seq = -1;
  std::vector<Dist> payload;
};

/// Validates defensively: any bit of the frame (header included) may have
/// been flipped in flight.
DecodedFrame decode_frame(std::span<const Dist> frame);

/// The transport ReliableComm drives.  Comm implements it over the
/// machine's mailboxes; tests implement scripted fakes.
class RawLink {
 public:
  virtual ~RawLink() = default;

  /// Physically transmit one frame (every retransmission shares it).
  /// Returns true when the link-layer ack reported delivery, false on
  /// loss or detected corruption (the protocol retries).  The
  /// implementation charges the transmission's cost; `retransmit` only
  /// labels the trace.
  virtual bool transmit(RankId dst, Tag tag, const Payload& frame,
                        bool retransmit) = 0;

  /// Blocking receive of the next physical frame on (src, tag).
  virtual Payload receive(RankId src, Tag tag) = 0;

  /// Charge protocol overhead (acks, backoff) to the local clock,
  /// labelled for the trace.
  virtual void charge(double latency, double words, const char* label) = 0;
};

/// Per-rank protocol endpoint: exactly-once in-order delivery per
/// (peer, tag) stream over a RawLink.  Not thread-safe (each rank owns
/// one, like its Comm).
class ReliableComm {
 public:
  explicit ReliableComm(ReliableOptions options = {})
      : options_(options) {}

  /// Frame and transmit `payload`, retrying on link-reported loss.
  /// Throws check_error after max_retries failed retransmissions.
  void send(RawLink& link, RankId dst, Tag tag,
            std::span<const Dist> payload);

  /// Next in-order payload of stream (src, tag): rejects corrupt frames,
  /// discards duplicates, buffers and reorders early frames.
  Payload recv(RawLink& link, RankId src, Tag tag);

  const ReliabilityStats& stats() const { return stats_; }

 private:
  using StreamKey = std::pair<RankId, Tag>;

  ReliableOptions options_;
  ReliabilityStats stats_;
  std::map<StreamKey, std::int64_t> send_seq_;
  std::map<StreamKey, std::int64_t> recv_seq_;
  /// Early (out-of-order) frames awaiting their turn, per stream.
  std::map<StreamKey, std::map<std::int64_t, Payload>> pending_;
};

}  // namespace capsp
