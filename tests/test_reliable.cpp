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

TEST(FrameFormat, DetectsAnySingleBitFlip) {
  const std::vector<Dist> data{1.0, 2.0, 3.0};
  const std::vector<Dist> frame = encode_frame(5, data);
  // Flip one bit anywhere in the frame — header or payload — and the
  // decode must fail (this is what the injector's kCorrupt does).
  for (std::size_t word = 0; word < frame.size(); ++word) {
    for (int bit = 0; bit < 52; bit += 13) {
      std::vector<Dist> mangled = frame;
      auto bits = std::bit_cast<std::uint64_t>(mangled[word]);
      bits ^= std::uint64_t{1} << bit;
      mangled[word] = std::bit_cast<Dist>(bits);
      EXPECT_FALSE(decode_frame(mangled).ok)
          << "flip of bit " << bit << " in word " << word << " undetected";
    }
  }
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
  ReliableOptions options;
  options.max_retries = 3;
  ReliableComm comm(options);
  link.ack_script = {false, false, false, false, false};
  EXPECT_THROW(comm.send(link, 1, 0, payload({9.0})), check_error);
  EXPECT_EQ(comm.stats().give_ups, 1);
  EXPECT_EQ(link.sent.size(), 4u);  // first attempt + max_retries
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
