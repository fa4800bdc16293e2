// Tests for the communication observatory (commledger.hpp + the
// cost_oracle message-optimality audit): per-channel bookkeeping, the
// logical/physical split under faults, deterministic JSON export, the
// telemetry hub, and the audit gates on a real solve.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost_oracle.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/collectives.hpp"
#include "machine/commledger.hpp"
#include "machine/machine.hpp"
#include "machine/trace_export.hpp"
#include "semiring/block.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace capsp {
namespace {

std::vector<Dist> payload(std::size_t words) {
  return std::vector<Dist>(words, 1.0);
}

TEST(CommChannelStats, SizeBucketMatchesMetricsConvention) {
  // Bucket 0 holds sizes <= 1, bucket b holds (2^(b-1), 2^b].
  EXPECT_EQ(CommChannelStats::size_bucket(0), 0);
  EXPECT_EQ(CommChannelStats::size_bucket(1), 0);
  EXPECT_EQ(CommChannelStats::size_bucket(2), 1);
  EXPECT_EQ(CommChannelStats::size_bucket(3), 2);
  EXPECT_EQ(CommChannelStats::size_bucket(4), 2);
  EXPECT_EQ(CommChannelStats::size_bucket(5), 3);
  EXPECT_EQ(CommChannelStats::size_bucket(1024), 10);
  EXPECT_EQ(CommChannelStats::size_bucket(1025), 11);
  EXPECT_EQ(CommChannelStats::size_bucket(INT64_MAX),
            CommChannelStats::kSizeBuckets - 1);
}

TEST(CommChannelStats, AccumulateAddsEveryCounter) {
  CommChannelStats a;
  a.logical_messages = 1;
  a.logical_words = 5;
  a.physical_frames = 2;
  a.physical_words = 9;
  a.retransmit_frames = 1;
  a.protocol_charges = 3;
  a.size_log2[3] = 2;
  CommChannelStats b = a;
  b += a;
  EXPECT_EQ(b.logical_messages, 2);
  EXPECT_EQ(b.logical_words, 10);
  EXPECT_EQ(b.physical_frames, 4);
  EXPECT_EQ(b.physical_words, 18);
  EXPECT_EQ(b.retransmit_frames, 2);
  EXPECT_EQ(b.protocol_charges, 6);
  EXPECT_EQ(b.size_log2[3], 4);
}

TEST(CommRecord, LedgerFoldMergesRepeatedKeysAndResumes) {
  CommRecord record;
  record.phases = {"default"};
  const auto add = [&record](CommEvent::Kind kind, RankId dst,
                             const char* tag_class, std::int64_t words) {
    record.events.push_back(
        {.kind = kind, .dst = dst, .tag_class = tag_class, .words = words});
  };
  add(CommEvent::Kind::kLogical, 1, "p2p", 5);
  add(CommEvent::Kind::kFrame, 1, "p2p", 5);
  add(CommEvent::Kind::kLogical, 1, "p2p", 3);
  add(CommEvent::Kind::kFrame, 1, "p2p", 3);
  add(CommEvent::Kind::kLogical, 2, "bcast", 7);
  // A protocol charge before any frame has no channel.
  add(CommEvent::Kind::kProtocol, -1, "p2p", 1);
  std::map<CommChannelKey, CommChannelStats> merged;
  const std::size_t folded = fold_comm_record(0, record, 0, merged);
  EXPECT_EQ(folded, record.events.size());
  ASSERT_EQ(merged.size(), 2u);
  const CommChannelStats& to1 =
      merged.at(CommChannelKey{0, 1, "p2p", "default"});
  EXPECT_EQ(to1.logical_messages, 2);
  EXPECT_EQ(to1.logical_words, 8);
  EXPECT_EQ(to1.physical_frames, 2);
  const CommChannelStats& to2 =
      merged.at(CommChannelKey{0, 2, "bcast", "default"});
  EXPECT_EQ(to2.logical_messages, 1);
  EXPECT_EQ(to2.logical_words, 7);
  // Folding again from where the last fold stopped must not double-count.
  EXPECT_EQ(fold_comm_record(0, record, folded, merged), folded);
  EXPECT_EQ(merged.at(CommChannelKey{0, 1, "p2p", "default"}).logical_words,
            8);
}

TEST(MachineLedger, SpmdSendRecordsExactChannel) {
  Machine machine(2);
  machine.enable_comm_ledger(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(5));
    } else {
      EXPECT_EQ(comm.recv(0, 7).size(), 5u);
    }
  });
  const CommLedger& ledger = machine.comm_ledger();
  ASSERT_TRUE(ledger.present);
  EXPECT_EQ(ledger.num_ranks, 2);
  ASSERT_EQ(ledger.channels.size(), 1u);
  const auto& [key, stats] = *ledger.channels.begin();
  EXPECT_EQ(key.src, 0);
  EXPECT_EQ(key.dst, 1);
  EXPECT_EQ(key.tag_class, "p2p");
  EXPECT_EQ(key.phase, "default");
  EXPECT_EQ(stats.logical_messages, 1);
  EXPECT_EQ(stats.logical_words, 5);
  // Raw transport: one frame, no header, no protocol charges.
  EXPECT_EQ(stats.physical_frames, 1);
  EXPECT_EQ(stats.physical_words, 5);
  EXPECT_EQ(stats.retransmit_frames, 0);
  EXPECT_EQ(stats.protocol_charges, 0);
  EXPECT_EQ(stats.size_log2[CommChannelStats::size_bucket(5)], 1);
  // Rollups agree with the single channel.
  const CommChannelStats totals = ledger.totals();
  EXPECT_EQ(totals.logical_messages, 1);
  EXPECT_EQ(totals.logical_words, 5);
  const auto phases = ledger.by_phase();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases.at("default").messages, 1);
  EXPECT_EQ(phases.at("default").max_channel_words, 5);
  const auto heat = ledger.heat_words();
  ASSERT_EQ(heat.size(), 4u);
  EXPECT_EQ(heat[0 * 2 + 1], 5);
  EXPECT_EQ(heat[1 * 2 + 0], 0);
}

TEST(MachineLedger, PhaseLabelsPartitionTraffic) {
  Machine machine(2);
  machine.enable_comm_ledger(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.set_phase("alpha");
      comm.send(1, 1, payload(2));
      comm.set_phase("beta");
      comm.send(1, 2, payload(3));
    } else {
      comm.recv(0, 1);
      comm.recv(0, 2);
    }
  });
  const auto phases = machine.comm_ledger().by_phase();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases.at("alpha").words, 2);
  EXPECT_EQ(phases.at("beta").words, 3);
}

TEST(MachineLedger, CollectivesCarryTheirTagClass) {
  Machine machine(4);
  machine.enable_comm_ledger(true);
  const std::vector<RankId> group{0, 1, 2, 3};
  machine.run([&group](Comm& comm) {
    DistBlock block(4, 4, comm.rank() == 0 ? 1.0 : kInf);
    group_broadcast(comm, group, 0, block, 11);
    EXPECT_EQ(block.at(0, 0), 1.0);
  });
  const CommLedger& ledger = machine.comm_ledger();
  ASSERT_FALSE(ledger.channels.empty());
  for (const auto& [key, stats] : ledger.channels)
    EXPECT_EQ(key.tag_class, "bcast") << key.src << "->" << key.dst;
}

TEST(MachineLedger, OffByDefaultAndResetBetweenRuns) {
  Machine machine(2);
  const auto exchange = [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(5));
    } else {
      comm.recv(0, 7);
    }
  };
  machine.run(exchange);
  EXPECT_FALSE(machine.comm_ledger().present);
  machine.enable_comm_ledger(true);
  machine.run(exchange);
  EXPECT_TRUE(machine.comm_ledger().present);
  EXPECT_EQ(machine.comm_ledger().totals().logical_messages, 1);
  // A second ledger-enabled run starts from zero, not cumulative.
  machine.run(exchange);
  EXPECT_EQ(machine.comm_ledger().totals().logical_messages, 1);
}

// Under a drop-heavy plan the reliable layer retries, but the *logical*
// books — the traffic matrix and the ledger's logical side — must match
// the clean run exactly; only the physical book inflates.
TEST(MachineLedger, RetriesInflatePhysicalBookOnly) {
  const auto chatter = [](Comm& comm) {
    for (int i = 0; i < 40; ++i) {
      if (comm.rank() == 0) {
        comm.send(1, 100 + i, payload(8));
      } else {
        EXPECT_EQ(comm.recv(0, 100 + i).size(), 8u);
      }
    }
  };
  Machine clean(2);
  clean.enable_reliable_transport(true);
  clean.enable_comm_ledger(true);
  clean.run(chatter);

  Machine faulty(2);
  faulty.enable_reliable_transport(true);
  faulty.enable_comm_ledger(true);
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.3;
  faulty.set_fault_plan(plan);
  faulty.run(chatter);

  // Logical application traffic is identical: no retry/ack inflation of
  // the traffic matrix.
  EXPECT_EQ(clean.traffic().words, faulty.traffic().words);
  EXPECT_EQ(clean.traffic().messages, faulty.traffic().messages);
  const CommChannelStats clean_totals = clean.comm_ledger().totals();
  const CommChannelStats faulty_totals = faulty.comm_ledger().totals();
  EXPECT_EQ(clean_totals.logical_messages, faulty_totals.logical_messages);
  EXPECT_EQ(clean_totals.logical_words, faulty_totals.logical_words);

  // The physical book shows the cost of surviving the drops: frame
  // headers on every frame, retransmissions, dropped frames, and the
  // ack/backoff protocol charges.
  EXPECT_GT(clean_totals.physical_words, clean_totals.logical_words);
  EXPECT_GT(faulty_totals.retransmit_frames, 0);
  EXPECT_GT(faulty_totals.dropped_frames, 0);
  EXPECT_GT(faulty_totals.physical_frames, clean_totals.physical_frames);
  EXPECT_GT(faulty_totals.protocol_charges, 0);
  EXPECT_EQ(clean_totals.retransmit_frames, 0);
}

TEST(MachineLedger, LedgerIsObservational) {
  // The ledger must not perturb the metered costs or the answer.
  Rng rng1(3), rng2(3);
  const Graph g1 = make_grid2d(9, 9, rng1);
  const Graph g2 = make_grid2d(9, 9, rng2);
  SparseApspOptions options;
  options.height = 2;
  const SparseApspResult off = run_sparse_apsp(g1, options);
  options.comm_ledger = true;
  const SparseApspResult on = run_sparse_apsp(g2, options);
  EXPECT_EQ(off.costs.critical_latency, on.costs.critical_latency);
  EXPECT_EQ(off.costs.critical_bandwidth, on.costs.critical_bandwidth);
  EXPECT_EQ(off.costs.total_messages, on.costs.total_messages);
  EXPECT_EQ(off.costs.total_words, on.costs.total_words);
  EXPECT_FALSE(off.comm.present);
  EXPECT_TRUE(on.comm.present);
  for (Vertex u = 0; u < off.distances.rows(); ++u)
    for (Vertex v = 0; v < off.distances.cols(); ++v)
      EXPECT_EQ(off.distances.at(u, v), on.distances.at(u, v));
}

// Satellite 3: repeated runs produce byte-identical comm sections.
TEST(MachineLedger, JsonExportIsDeterministicAcrossRuns) {
  const auto solve_json = [] {
    Rng rng(17);
    const Graph graph = make_grid2d(13, 13, rng);
    SparseApspOptions options;
    options.height = 2;
    options.comm_ledger = true;
    const SparseApspResult result = run_sparse_apsp(graph, options);
    std::ostringstream out;
    write_comm_ledger_json(out, result.comm);
    return out.str();
  };
  const std::string first = solve_json();
  const std::string second = solve_json();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(MachineLedger, HubServesLiveAndPublishedSnapshots) {
  Machine machine(2);
  machine.enable_comm_ledger(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(5));
    } else {
      comm.recv(0, 7);
    }
  });
  // After the run the hub holds the published final ledger (this is what
  // apsp_tool's /comm.json endpoint serves).
  const CommLedger snapshot = CommLedgerHub::global().snapshot();
  ASSERT_TRUE(snapshot.present);
  EXPECT_EQ(snapshot.totals().logical_messages,
            machine.comm_ledger().totals().logical_messages);
  EXPECT_EQ(snapshot.totals().logical_words,
            machine.comm_ledger().totals().logical_words);
}

// A second thread reads the hub while a ledger-on solve runs: the ranks'
// phase-seam folds only ever add to the live ledger, and the ledger
// published at the end is the run's own.
TEST(MachineLedger, HubSnapshotsGrowWhileASolveRuns) {
  CommLedgerHub::global().publish(CommLedger{});  // forget earlier runs
  std::atomic<bool> done{false};
  std::vector<std::pair<std::int64_t, std::int64_t>> seen;
  std::thread poller([&] {
    while (!done.load()) {
      const CommChannelStats totals =
          CommLedgerHub::global().snapshot().totals();
      seen.emplace_back(totals.logical_messages, totals.logical_words);
      std::this_thread::yield();
    }
  });
  Rng rng(5);
  const Graph graph = make_grid2d(9, 9, rng);
  SparseApspOptions options;
  options.height = 3;
  options.comm_ledger = true;
  const SparseApspResult result = run_sparse_apsp(graph, options);
  done = true;
  poller.join();

  const CommChannelStats final_totals = result.comm.totals();
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_LE(seen[i].first, final_totals.logical_messages) << i;
    EXPECT_LE(seen[i].second, final_totals.logical_words) << i;
    if (i == 0) continue;
    EXPECT_GE(seen[i].first, seen[i - 1].first) << i;
    EXPECT_GE(seen[i].second, seen[i - 1].second) << i;
  }
  std::ostringstream published, returned;
  write_comm_ledger_json(published, CommLedgerHub::global().snapshot());
  write_comm_ledger_json(returned, result.comm);
  EXPECT_EQ(published.str(), returned.str());
}

TEST(MachineLedger, ReportAndTraceJsonCarryCommSection) {
  Machine machine(2);
  machine.enable_comm_ledger(true);
  machine.enable_tracing(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(5));
    } else {
      comm.recv(0, 7);
    }
  });
  std::ostringstream report;
  write_cost_report_json(report, machine.report(), nullptr, nullptr,
                         &machine.comm_ledger());
  EXPECT_NE(report.str().find("\"comm\""), std::string::npos);
  EXPECT_NE(report.str().find("\"heat_words\""), std::string::npos);
  std::ostringstream trace;
  write_chrome_trace(trace, machine.trace(), nullptr, nullptr,
                     &machine.comm_ledger());
  EXPECT_NE(trace.str().find("\"comm\""), std::string::npos);
}

// Every view of one run's communication agrees: the cost report's
// volumes (post-reset plus setup segment), the ledger's physical book,
// the trace's send events, the machine.comm.* metrics, and — for the
// logical book — the traffic matrix.
void expect_report_matches_frames(const CostReport& costs,
                                  const CommLedger& ledger,
                                  const MetricsSnapshot& metrics) {
  std::map<std::string, PhaseVolume> frames;
  for (const auto& [phase, volume] : costs.phase_total)
    frames[phase] += volume;
  for (const auto& [phase, volume] : costs.setup_phase_total)
    frames[phase] += volume;
  const auto by_phase = ledger.by_phase();
  for (const auto& [phase, totals] : by_phase) {
    EXPECT_EQ(frames[phase].messages, totals.physical_frames) << phase;
    EXPECT_EQ(frames[phase].words, totals.physical_words) << phase;
  }
  EXPECT_EQ(frames.size(), by_phase.size());

  const std::int64_t all_frames = costs.total_messages + costs.setup_messages;
  const std::int64_t all_words = costs.total_words + costs.setup_words;
  const CommChannelStats totals = ledger.totals();
  EXPECT_EQ(all_frames, totals.physical_frames);
  EXPECT_EQ(all_words, totals.physical_words);
  ASSERT_TRUE(metrics.count("machine.comm.frames"));
  EXPECT_EQ(metrics.at("machine.comm.frames").counter, all_frames);
  EXPECT_EQ(metrics.at("machine.comm.words").counter, all_words);
  const Histogram& sizes = metrics.at("machine.comm.frame_words").histogram;
  EXPECT_EQ(sizes.count, all_frames);
  EXPECT_EQ(sizes.sum, static_cast<double>(all_words));
  const std::int64_t retransmits =
      metrics.count("machine.comm.retransmit_frames")
          ? metrics.at("machine.comm.retransmit_frames").counter
          : 0;
  EXPECT_EQ(retransmits, totals.retransmit_frames);
}

TEST(CommViews, AllViewsAgree) {
  for (const CollectiveAlgorithm collectives :
       {CollectiveAlgorithm::kBinomialTree,
        CollectiveAlgorithm::kPipelined}) {
    Rng rng(11);
    const Graph graph = make_grid2d(9, 9, rng);
    SparseApspOptions options;
    options.height = 3;
    options.collectives = collectives;
    options.trace = true;
    options.comm_ledger = true;
    MetricsRegistry sink;
    SparseApspResult result;
    {
      const ScopedMetricsSink scoped(sink);
      result = run_sparse_apsp(graph, options);
    }
    expect_report_matches_frames(result.costs, result.comm, sink.snapshot());
    // The trace's send events, per phase, are the same frames.
    std::map<std::string, PhaseVolume> sends;
    for (const auto& timeline : result.trace.per_rank)
      for (const TraceEvent& event : timeline)
        if (event.kind == TraceEventKind::kSend) {
          ++sends[event.phase].messages;
          sends[event.phase].words += event.words;
        }
    const auto by_phase = result.comm.by_phase();
    ASSERT_EQ(sends.size(), by_phase.size());
    for (const auto& [phase, totals] : by_phase) {
      EXPECT_EQ(sends[phase].messages, totals.physical_frames) << phase;
      EXPECT_EQ(sends[phase].words, totals.physical_words) << phase;
    }
  }

  // Reliable transport under drops: headers, retries and a setup segment
  // split the physical book from the logical one.
  Machine machine(4);
  machine.enable_comm_ledger(true);
  machine.enable_reliable_transport(true);
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.3;
  machine.set_fault_plan(plan);
  MetricsRegistry sink;
  {
    const ScopedMetricsSink scoped(sink);
    machine.run([](Comm& comm) {
      const int p = comm.size();
      const RankId next = (comm.rank() + 1) % p;
      const RankId prev = (comm.rank() + p - 1) % p;
      comm.set_phase("ring");
      for (int i = 0; i < 10; ++i) {
        if (i == 3) {
          comm.reset_clock();
          comm.set_phase("ring");  // reused across the reset
        }
        comm.send(next, 100 + i, payload(1 + (i + comm.rank()) % 7));
        comm.recv(prev, 100 + i);
      }
      comm.set_phase("bcast");
      const std::vector<RankId> group{0, 1, 2, 3};
      DistBlock block(3, 3, comm.rank() == 0 ? 1.0 : kInf);
      group_broadcast(comm, group, 0, block, 200);
    });
  }
  const CostReport& costs = machine.report();
  const CommLedger& ledger = machine.comm_ledger();
  EXPECT_GT(costs.setup_messages, 0);
  EXPECT_GT(ledger.totals().retransmit_frames, 0);
  expect_report_matches_frames(costs, ledger, sink.snapshot());
  // The logical book is the traffic matrix, cell by cell.
  const TrafficMatrix traffic = machine.traffic();
  std::map<std::pair<RankId, RankId>, PhaseVolume> logical;
  for (const auto& [key, stats] : ledger.channels) {
    logical[{key.src, key.dst}].messages += stats.logical_messages;
    logical[{key.src, key.dst}].words += stats.logical_words;
  }
  for (RankId src = 0; src < 4; ++src)
    for (RankId dst = 0; dst < 4; ++dst) {
      const PhaseVolume& cell = logical[std::make_pair(src, dst)];
      EXPECT_EQ(traffic.messages_between(src, dst), cell.messages);
      EXPECT_EQ(traffic.words_between(src, dst), cell.words);
    }
}

TEST(CommAudit, PassesOnRealSolveWithinCheckOracleTolerance) {
  Rng rng(42);
  const Graph graph = make_grid2d(17, 17, rng);
  SparseApspOptions options;
  options.height = 2;
  options.comm_ledger = true;
  options.collect_distances = true;
  const SparseApspResult result = run_sparse_apsp(graph, options);
  ASSERT_TRUE(result.comm_audit.present);
  EXPECT_EQ(result.comm_audit.model, "2d-sparse-apsp");
  // Same tolerance the clock oracle uses for real solves.
  EXPECT_NO_THROW(check_comm_audit(result.comm_audit, 8.0));
  EXPECT_TRUE(comm_audit_within(result.comm_audit, 8.0));
  // The collect phase ran, so the Dufoulon floor gate is active and the
  // measured volume sits above the (1 - 1/p)·n² output floor.
  EXPECT_TRUE(result.comm_audit.has_collect);
  EXPECT_GE(result.comm_audit.word_optimality_factor, 1.0);
}

TEST(CommAudit, FlagsALedgerThatBlowsTheMessageBound) {
  CommLedger ledger;
  ledger.present = true;
  ledger.num_ranks = 4;
  CommChannelStats& stats =
      ledger.channels[CommChannelKey{0, 1, "p2p", "L1/R2"}];
  stats.logical_messages = 1'000'000;  // p·h·log₂p is ~16 here
  stats.logical_words = 1'000'000;
  stats.physical_frames = 1'000'000;
  stats.physical_words = 1'000'000;
  const CommAudit audit = audit_sparse_apsp_comm(ledger, 16, 4, 4, 2);
  EXPECT_FALSE(comm_audit_within(audit, 8.0));
  EXPECT_THROW(check_comm_audit(audit, 8.0), check_error);
}

TEST(CommAudit, SingleRankRunsAreVacuouslyWithin) {
  CommLedger ledger;
  ledger.present = true;
  ledger.num_ranks = 1;
  const CommAudit audit = audit_sparse_apsp_comm(ledger, 16, 4, 1, 1);
  EXPECT_TRUE(comm_audit_within(audit, 8.0));
}

TEST(CommAudit, AuditFieldsAppearInJson) {
  Rng rng(7);
  const Graph graph = make_grid2d(9, 9, rng);
  SparseApspOptions options;
  options.height = 2;
  options.comm_ledger = true;
  const SparseApspResult result = run_sparse_apsp(graph, options);
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  write_comm_audit_fields(json, result.comm_audit);
  json.end_object();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"comm_audit\""), std::string::npos);
  EXPECT_NE(text.find("\"total_message_ratio\""), std::string::npos);
  EXPECT_NE(text.find("\"word_optimality_factor\""), std::string::npos);
  EXPECT_NE(text.find("\"regions\""), std::string::npos);
}

}  // namespace
}  // namespace capsp
