#include "machine/cost_model.hpp"

#include <array>

namespace capsp {

CostReport CostReport::aggregate(const std::vector<CostClock>& clocks,
                                 const std::vector<CommRecord>& records) {
  CostReport report;
  for (const CostClock& clock : clocks) {
    report.critical_latency = std::max(report.critical_latency, clock.latency);
    report.critical_bandwidth =
        std::max(report.critical_bandwidth, clock.words);
  }
  for (const CommRecord& record : records) {
    // This rank's frames per interned phase: [0] measured, [1] the setup
    // segment, kept apart even where it reuses a label.
    std::vector<std::array<PhaseVolume, 2>> volumes(record.phases.size());
    for (std::size_t i = 0; i < record.events.size(); ++i) {
      const CommEvent& event = record.events[i];
      if (event.kind != CommEvent::Kind::kFrame) continue;
      PhaseVolume& volume = volumes[static_cast<std::size_t>(event.phase)]
                                   [i < record.reset_at ? 1 : 0];
      ++volume.messages;
      volume.words += event.words;
    }
    PhaseVolume rank;
    for (std::size_t p = 0; p < volumes.size(); ++p) {
      const auto& [measured, setup] = volumes[p];
      const std::string& phase = record.phases[p];
      if (measured.messages > 0) {
        report.phase_total[phase] += measured;
        PhaseVolume& peak = report.phase_max_rank[phase];
        peak.messages = std::max(peak.messages, measured.messages);
        peak.words = std::max(peak.words, measured.words);
        rank += measured;
      }
      if (setup.messages > 0) {
        report.setup_phase_total[phase] += setup;
        report.setup_messages += setup.messages;
        report.setup_words += setup.words;
      }
    }
    report.total_messages += rank.messages;
    report.total_words += rank.words;
    report.max_rank_messages =
        std::max(report.max_rank_messages, rank.messages);
    report.max_rank_words = std::max(report.max_rank_words, rank.words);
  }
  return report;
}

}  // namespace capsp
