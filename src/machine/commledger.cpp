#include "machine/commledger.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/json.hpp"

namespace capsp {

CommChannelStats& CommChannelStats::operator+=(const CommChannelStats& other) {
  logical_messages += other.logical_messages;
  logical_words += other.logical_words;
  physical_frames += other.physical_frames;
  physical_words += other.physical_words;
  retransmit_frames += other.retransmit_frames;
  retransmit_words += other.retransmit_words;
  duplicate_frames += other.duplicate_frames;
  dropped_frames += other.dropped_frames;
  protocol_charges += other.protocol_charges;
  protocol_latency += other.protocol_latency;
  protocol_words += other.protocol_words;
  for (int b = 0; b < kSizeBuckets; ++b) size_log2[b] += other.size_log2[b];
  return *this;
}

int CommChannelStats::size_bucket(std::int64_t words) {
  if (words <= 1) return 0;
  int bucket = 0;
  std::int64_t upper = 1;
  while (upper < words && bucket < kSizeBuckets - 1) {
    upper <<= 1;
    ++bucket;
  }
  return bucket;
}

std::size_t fold_comm_record(
    RankId src, const CommRecord& record, std::size_t from,
    std::map<CommChannelKey, CommChannelStats>& channels) {
  for (std::size_t i = from; i < record.events.size(); ++i) {
    const CommEvent& event = record.events[i];
    if (event.dst < 0) continue;
    CommChannelStats& stats = channels[CommChannelKey{
        src, event.dst, event.tag_class,
        record.phases[static_cast<std::size_t>(event.phase)]}];
    switch (event.kind) {
      case CommEvent::Kind::kLogical:
        ++stats.logical_messages;
        stats.logical_words += event.words;
        break;
      case CommEvent::Kind::kFrame:
        ++stats.physical_frames;
        stats.physical_words += event.words;
        ++stats.size_log2[CommChannelStats::size_bucket(event.words)];
        if (event.retransmit) {
          ++stats.retransmit_frames;
          stats.retransmit_words += event.words;
        }
        // An injected duplicate rode the same frame: only the count is
        // kept (it adds no sender charge).
        stats.duplicate_frames += event.duplicated;
        stats.dropped_frames += event.dropped;
        break;
      case CommEvent::Kind::kProtocol:
        ++stats.protocol_charges;
        stats.protocol_latency += event.latency;
        stats.protocol_words += event.words;
        break;
    }
  }
  return record.events.size();
}

CommChannelStats CommLedger::totals() const {
  CommChannelStats sum;
  for (const auto& [key, stats] : channels) sum += stats;
  return sum;
}

std::map<std::string, CommPhaseTotals> CommLedger::by_phase() const {
  std::map<std::string, CommPhaseTotals> phases;
  for (const auto& [key, stats] : channels) {
    CommPhaseTotals& t = phases[key.phase];
    t.messages += stats.logical_messages;
    t.words += stats.logical_words;
    t.physical_frames += stats.physical_frames;
    t.physical_words += stats.physical_words;
  }
  // Max-channel load needs the per-(src,dst) totals within each phase:
  // the same pair may appear under several tag classes.
  std::map<std::pair<std::string, std::pair<RankId, RankId>>,
           std::pair<std::int64_t, std::int64_t>>
      pair_load;  // (phase, (src,dst)) -> (messages, words), logical
  for (const auto& [key, stats] : channels) {
    auto& load = pair_load[{key.phase, {key.src, key.dst}}];
    load.first += stats.logical_messages;
    load.second += stats.logical_words;
  }
  for (const auto& [pk, load] : pair_load) {
    CommPhaseTotals& t = phases[pk.first];
    t.max_channel_messages = std::max(t.max_channel_messages, load.first);
    t.max_channel_words = std::max(t.max_channel_words, load.second);
  }
  return phases;
}

std::vector<std::int64_t> CommLedger::heat_words() const {
  std::vector<std::int64_t> heat(
      static_cast<std::size_t>(num_ranks) * num_ranks, 0);
  for (const auto& [key, stats] : channels) {
    if (key.src < 0 || key.src >= num_ranks) continue;
    if (key.dst < 0 || key.dst >= num_ranks) continue;
    heat[static_cast<std::size_t>(key.src) * num_ranks + key.dst] +=
        stats.physical_words;
  }
  return heat;
}

std::vector<std::int64_t> CommLedger::heat_frames() const {
  std::vector<std::int64_t> heat(
      static_cast<std::size_t>(num_ranks) * num_ranks, 0);
  for (const auto& [key, stats] : channels) {
    if (key.src < 0 || key.src >= num_ranks) continue;
    if (key.dst < 0 || key.dst >= num_ranks) continue;
    heat[static_cast<std::size_t>(key.src) * num_ranks + key.dst] +=
        stats.physical_frames;
  }
  return heat;
}

namespace {

void write_stats_fields(JsonWriter& json, const CommChannelStats& stats) {
  json.field("logical_messages", stats.logical_messages);
  json.field("logical_words", stats.logical_words);
  json.field("physical_frames", stats.physical_frames);
  json.field("physical_words", stats.physical_words);
  json.field("retransmit_frames", stats.retransmit_frames);
  json.field("retransmit_words", stats.retransmit_words);
  json.field("duplicate_frames", stats.duplicate_frames);
  json.field("dropped_frames", stats.dropped_frames);
  json.field("protocol_charges", stats.protocol_charges);
  json.field("protocol_latency", stats.protocol_latency);
  json.field("protocol_words", stats.protocol_words);
  // Sparse histogram: only the occupied buckets, ascending.
  json.key("size_log2");
  json.begin_object();
  for (int b = 0; b < CommChannelStats::kSizeBuckets; ++b) {
    if (stats.size_log2[b] != 0) {
      json.field(std::to_string(b), stats.size_log2[b]);
    }
  }
  json.end_object();
}

void write_heat(JsonWriter& json, const std::vector<std::int64_t>& heat) {
  json.begin_array();
  for (std::int64_t v : heat) json.value(v);
  json.end_array();
}

}  // namespace

void write_comm_fields(JsonWriter& json, const CommLedger& ledger) {
  json.key("comm");
  json.begin_object();
  json.field("num_ranks", ledger.num_ranks);
  json.field("num_channels", ledger.channels.size());

  json.key("totals");
  json.begin_object();
  write_stats_fields(json, ledger.totals());
  json.end_object();

  json.key("phases");
  json.begin_object();
  for (const auto& [phase, t] : ledger.by_phase()) {
    json.key(phase);
    json.begin_object();
    json.field("messages", t.messages);
    json.field("words", t.words);
    json.field("physical_frames", t.physical_frames);
    json.field("physical_words", t.physical_words);
    json.field("max_channel_messages", t.max_channel_messages);
    json.field("max_channel_words", t.max_channel_words);
    json.end_object();
  }
  json.end_object();

  json.key("heat_words");
  write_heat(json, ledger.heat_words());
  json.key("heat_frames");
  write_heat(json, ledger.heat_frames());

  json.key("channels");
  json.begin_array();
  for (const auto& [key, stats] : ledger.channels) {
    json.begin_object();
    json.field("src", key.src);
    json.field("dst", key.dst);
    json.field("class", key.tag_class);
    json.field("phase", key.phase);
    write_stats_fields(json, stats);
    json.end_object();
  }
  json.end_array();

  json.end_object();
}

void write_comm_ledger_json(std::ostream& out, const CommLedger& ledger) {
  JsonWriter json(out);
  json.begin_object();
  write_comm_fields(json, ledger);
  json.end_object();
  out << "\n";
}

CommLedgerHub& CommLedgerHub::global() {
  static CommLedgerHub hub;
  return hub;
}

void CommLedgerHub::set_provider(std::function<CommLedger()> provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  provider_ = std::move(provider);
}

void CommLedgerHub::clear_provider() {
  std::lock_guard<std::mutex> lock(mutex_);
  provider_ = nullptr;
}

void CommLedgerHub::publish(const CommLedger& ledger) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_ = ledger;
}

CommLedger CommLedgerHub::snapshot() const {
  // The provider runs under the hub lock, so once clear_provider() returns
  // no call into the finished run's machine is in flight, and the machine
  // may free its live ledger.  The provider takes the machine's live
  // ledger lock inside this one; nothing takes the two in the other order
  // (ranks never touch the hub).
  std::lock_guard<std::mutex> lock(mutex_);
  return provider_ ? provider_() : last_;
}

}  // namespace capsp
