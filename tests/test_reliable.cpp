// Tests for the reliable-delivery layer (reliable.hpp): frame format and
// checksum, the protocol state machine against scripted links, overhead
// metering through the cost model, and end-to-end equivalence of reliable
// and raw transports on the real algorithm.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>

#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/machine.hpp"
#include "machine/reliable.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

std::vector<Dist> payload(std::initializer_list<Dist> values) {
  return values;
}

TEST(FrameFormat, RoundTrip) {
  const std::vector<Dist> data{1.5, -2.0, kInf, 0.0};
  const std::vector<Dist> frame = encode_frame(7, data);
  ASSERT_EQ(frame.size(), data.size() + kFrameHeaderWords);
  const DecodedFrame decoded = decode_frame(frame);
  EXPECT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.seq, 7);
  EXPECT_EQ(decoded.payload, data);
}

TEST(FrameFormat, EmptyPayloadRoundTrips) {
  const DecodedFrame decoded = decode_frame(encode_frame(0, {}));
  EXPECT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.seq, 0);
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(FrameFormat, ChecksumCoversSequenceNumber) {
  const std::vector<Dist> data{3.0, 4.0};
  EXPECT_NE(frame_checksum(0, data), frame_checksum(1, data));
}

void flip(Dist& word, int bit) {
  word = std::bit_cast<Dist>(std::bit_cast<std::uint64_t>(word) ^
                             (std::uint64_t{1} << bit));
}

/// `words` payload words: finite values of both signs, zeros and kInf.
std::vector<Dist> sample_payload(std::size_t words) {
  Rng rng(words);
  std::vector<Dist> data(words);
  for (Dist& d : data)
    d = rng.bernoulli(0.1) ? kInf
        : rng.bernoulli(0.1) ? 0.0
                             : rng.uniform_real(-1e6, 1e6);
  return data;
}

/// One 64x64 tile, the unit the snapshot reader checksums.
constexpr std::size_t kTileWords = 64 * 64;

// Flip any one bit of a frame of 0..9 payload words, header or payload,
// and the decode must fail (this is what the injector's kCorrupt does).
// Frames of 4 words and more run the hash's four lanes.
TEST(FrameFormat, DetectsAnySingleBitFlip) {
  for (std::size_t words = 0; words <= 9; ++words) {
    const std::vector<Dist> frame = encode_frame(5, sample_payload(words));
    for (std::size_t word = 0; word < frame.size(); ++word) {
      for (int bit = 0; bit < 64; ++bit) {
        std::vector<Dist> mangled = frame;
        flip(mangled[word], bit);
        EXPECT_FALSE(decode_frame(mangled).ok)
            << "flip of bit " << bit << " in word " << word << " of a "
            << words << "-word frame undetected";
      }
    }
  }
}

// Every one of the 262,144 single-bit flips of a tile changes its
// checksum.
TEST(FrameFormat, ChecksumCatchesEveryBitFlipOfATile) {
  std::vector<Dist> tile = sample_payload(kTileWords);
  const std::uint64_t clean = frame_checksum(3, tile);
  std::int64_t missed = 0;
  for (std::size_t word = 0; word < tile.size(); ++word) {
    for (int bit = 0; bit < 64; ++bit) {
      flip(tile[word], bit);
      if (frame_checksum(3, tile) == clean) {
        ADD_FAILURE() << "flip of bit " << bit << " in word " << word
                      << " undetected";
        if (++missed == 10) return;
      }
      flip(tile[word], bit);
    }
  }
}

// Words i and i + 4 feed the same lane.  Flipping one bit in both must
// change the checksum: under a lane of (acc ^ word) * odd, the two bit-63
// differences cancel, since a multiply carries a difference only upward.
TEST(FrameFormat, ChecksumCatchesPairedFlipsInOneLane) {
  std::vector<Dist> tile = sample_payload(kTileWords);
  const std::uint64_t clean = frame_checksum(3, tile);
  std::int64_t missed = 0;
  for (const int bit : {0, 31, 52, 63}) {
    for (std::size_t word = 0; word + 4 < tile.size(); ++word) {
      flip(tile[word], bit);
      flip(tile[word + 4], bit);
      if (frame_checksum(3, tile) == clean) {
        ADD_FAILURE() << "bit " << bit << " flipped in words " << word
                      << " and " << word + 4 << " undetected";
        if (++missed == 10) return;
      }
      flip(tile[word], bit);
      flip(tile[word + 4], bit);
    }
  }
}

// A zero word appended to (or dropped from) a payload changes its
// checksum: the length is hashed, not just the words.
TEST(FrameFormat, ChecksumCoversPayloadLength) {
  const auto appending_a_zero_changes_it = [](std::size_t words) {
    std::vector<Dist> data = sample_payload(words);
    const std::uint64_t shorter = frame_checksum(3, data);
    data.push_back(0.0);
    return frame_checksum(3, data) != shorter;
  };
  for (std::size_t words = 0; words <= 9; ++words)
    EXPECT_TRUE(appending_a_zero_changes_it(words)) << words << " words";
  EXPECT_TRUE(appending_a_zero_changes_it(kTileWords - 1));
}

// Snapshot and sketch files on disk must verify against these values
// under any compiler, flag or optimisation level.  Each is XXH64 of the
// payload's little-endian bytes, seeded with seq, masked to 48 bits; the
// empty payload's is XXH64's published empty-input value 0xef46db3751d8e999
// masked.  The payloads are built from formulas, not from a generator,
// so they cannot drift either.
TEST(FrameFormat, ChecksumMatchesRecordedValues) {
  std::vector<Dist> tile(kTileWords);
  for (std::size_t i = 0; i < tile.size(); ++i)
    tile[i] = i % 17 == 0 ? kInf : 0.25 * static_cast<double>(i) - 100;
  EXPECT_EQ(frame_checksum(0, {}), 0xdb3751d8e999ull);
  EXPECT_EQ(frame_checksum(-1, payload({1.0})), 0x4c95513a19f7ull);
  EXPECT_EQ(frame_checksum(7, payload({1.5, -2.0, kInf})), 0xb8ad301563a2ull);
  EXPECT_EQ(frame_checksum(12345, payload({0.0, 1.0, 2.0, 3.0})),
            0x19de7228ab6bull);
  EXPECT_EQ(frame_checksum(std::int64_t{1} << 40,
                           payload({-0.5, 1e300, -0.0, kInf, 42.0})),
            0xd6be261a1a6aull);
  EXPECT_EQ(frame_checksum(63, tile), 0x61de956c89e6ull);
}

TEST(FrameFormat, RejectsTruncatedFrame) {
  EXPECT_FALSE(decode_frame(std::vector<Dist>{}).ok);
  EXPECT_FALSE(decode_frame(std::vector<Dist>{3.0}).ok);
}

/// Scripted transport: transmit results come from a script, receives pop
/// a queue of pre-built frames, charges are recorded.
class ScriptedLink final : public RawLink {
 public:
  std::deque<bool> ack_script;          ///< result of each transmit
  std::deque<std::vector<Dist>> inbox;  ///< frames receive() returns
  std::vector<Payload> sent;            ///< every transmitted frame
  int retransmit_flags = 0;
  double charged_latency = 0;
  double charged_words = 0;
  std::vector<std::string> charge_labels;

  bool transmit(RankId, Tag, const Payload& frame,
                bool retransmit) override {
    sent.push_back(frame);
    if (retransmit) ++retransmit_flags;
    if (ack_script.empty()) return true;
    const bool ok = ack_script.front();
    ack_script.pop_front();
    return ok;
  }
  Payload receive(RankId, Tag) override {
    CAPSP_CHECK_MSG(!inbox.empty(), "scripted link inbox ran dry");
    Payload frame(std::move(inbox.front()));
    inbox.pop_front();
    return frame;
  }
  void charge(double latency, double words, const char* label) override {
    charged_latency += latency;
    charged_words += words;
    charge_labels.emplace_back(label);
  }
};

TEST(ReliableComm, RetriesUntilLinkAcks) {
  ScriptedLink link;
  link.ack_script = {false, false, true};
  ReliableComm comm;
  comm.send(link, 1, 0, payload({9.0}));
  EXPECT_EQ(link.sent.size(), 3u);  // one frame, three tries, no copies
  EXPECT_EQ(link.sent[0].data(), link.sent[2].data());
  EXPECT_EQ(link.sent[0], link.sent[2].words());
  EXPECT_EQ(link.retransmit_flags, 2);
  EXPECT_EQ(comm.stats().frames_sent, 3);
  EXPECT_EQ(comm.stats().retransmissions, 2);
  EXPECT_EQ(comm.stats().acks, 1);
}

TEST(ReliableComm, BackoffChargesGrowExponentially) {
  ScriptedLink link;
  link.ack_script = {false, false, false, true};
  ReliableComm comm;
  comm.send(link, 1, 0, payload({9.0}));
  // Three failures charge backoff 1 + 2 + 4, then the ack charges (1, 1).
  ASSERT_EQ(link.charge_labels.size(), 4u);
  EXPECT_EQ(link.charge_labels[0], "backoff");
  EXPECT_EQ(link.charge_labels[3], "ack");
  EXPECT_EQ(link.charged_latency, 1 + 2 + 4 + 1);
  EXPECT_EQ(link.charged_words, 1);
}

TEST(ReliableComm, GivesUpAfterMaxRetries) {
  ScriptedLink link;  // empty ack script defaults to true after the deque
  ReliableComm comm;
  link.ack_script.assign(ReliableComm::kMaxRetransmissions + 2, false);
  EXPECT_THROW(comm.send(link, 1, 0, payload({9.0})), check_error);
  EXPECT_EQ(comm.stats().give_ups, 1);
  // The first attempt and every retransmission.
  EXPECT_EQ(link.sent.size(), ReliableComm::kMaxRetransmissions + 1u);
}

TEST(ReliableComm, ReordersBuffersAndDiscardsDuplicates) {
  ScriptedLink link;
  const auto f0 = encode_frame(0, payload({10.0}));
  const auto f1 = encode_frame(1, payload({11.0}));
  const auto f2 = encode_frame(2, payload({12.0}));
  // Stream arrives as: 1 (early), 0, 0 again (duplicate), 2.
  link.inbox = {f1, f0, f0, f2};
  ReliableComm comm;
  EXPECT_EQ(comm.recv(link, 0, 0), payload({10.0}));
  EXPECT_EQ(comm.recv(link, 0, 0), payload({11.0}));  // from the buffer
  EXPECT_EQ(comm.recv(link, 0, 0), payload({12.0}));
  EXPECT_EQ(comm.stats().reordered, 1);
  EXPECT_EQ(comm.stats().duplicates_dropped, 1);
}

TEST(ReliableComm, RejectsCorruptFrameAndTakesRetransmission) {
  ScriptedLink link;
  auto bad = encode_frame(0, payload({10.0}));
  auto bits = std::bit_cast<std::uint64_t>(bad[2]);
  bad[2] = std::bit_cast<Dist>(bits ^ 1u);
  link.inbox = {bad, encode_frame(0, payload({10.0}))};
  ReliableComm comm;
  EXPECT_EQ(comm.recv(link, 0, 0), payload({10.0}));
  EXPECT_EQ(comm.stats().corrupt_rejected, 1);
}

TEST(ReliableComm, StreamsArePerPeerAndTag) {
  ScriptedLink link;
  // Two independent streams both start at seq 0.
  link.inbox = {encode_frame(0, payload({1.0})),
                encode_frame(0, payload({2.0}))};
  ReliableComm comm;
  EXPECT_EQ(comm.recv(link, 0, 7), payload({1.0}));
  EXPECT_EQ(comm.recv(link, 1, 7), payload({2.0}));
  EXPECT_EQ(comm.stats().duplicates_dropped, 0);
}

TEST(ReliableMachine, MetersFramingAndAckOverhead) {
  Machine machine(2);
  machine.enable_reliable_transport(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload({1.0, 2.0, 3.0}));
    } else {
      EXPECT_EQ(comm.recv(0, 7), payload({1.0, 2.0, 3.0}));
    }
  });
  const CostReport& report = machine.report();
  // The 3-word payload rides a 5-word frame; the sender then absorbs the
  // (1, 1) ack charge: sender clock (2, 6), receiver clock (1, 5).
  EXPECT_EQ(report.critical_latency, 2);
  EXPECT_EQ(report.critical_bandwidth, 6);
  EXPECT_EQ(report.total_messages, 1);
  EXPECT_EQ(report.total_words, 5);
  EXPECT_EQ(report.reliability.frames_sent, 1);
  EXPECT_EQ(report.reliability.acks, 1);
  EXPECT_EQ(report.reliability.retransmissions, 0);
}

TEST(ReliableMachine, ProtocolChargesAppearInTrace) {
  Machine machine(2);
  machine.enable_reliable_transport(true);
  machine.enable_tracing(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload({1.0}));
    } else {
      comm.recv(0, 7);
    }
  });
  int protocol_events = 0;
  for (const auto& timeline : machine.trace().per_rank)
    for (const TraceEvent& e : timeline)
      if (e.kind == TraceEventKind::kProtocol) ++protocol_events;
  EXPECT_EQ(protocol_events, 1);  // the sender's ack charge
}

TEST(ReliableMachine, FaultFreeDistancesMatchRawTransport) {
  Rng rng(11);
  const Graph graph = make_grid2d(7, 7, rng);
  SparseApspOptions options;
  options.height = 2;
  const DistBlock raw = run_sparse_apsp(graph, options).distances;
  options.reliable = true;
  const DistBlock reliable = run_sparse_apsp(graph, options).distances;
  ASSERT_EQ(raw.rows(), reliable.rows());
  for (Vertex u = 0; u < raw.rows(); ++u)
    for (Vertex v = 0; v < raw.cols(); ++v)
      EXPECT_EQ(raw.at(u, v), reliable.at(u, v)) << u << "," << v;
}

}  // namespace
}  // namespace capsp
