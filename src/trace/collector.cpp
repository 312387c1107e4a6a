#include "trace/collector.hpp"

#include "util/check.hpp"

namespace charisma::trace {

Collector::Collector(ipsc::Machine& machine, CollectorParams params)
    : machine_(&machine), params_(params) {
  buffers_.resize(static_cast<std::size_t>(machine.compute_nodes()));
  header_.compute_nodes = machine.compute_nodes();
  header_.io_nodes = machine.io_nodes();
  header_.block_size = util::kBlockSize;
  header_.trace_start = machine.engine().now();
  // Derived once: append() consults this on every record.
  if (params_.buffer_on_nodes) {
    const auto n = static_cast<std::size_t>(params_.node_buffer_bytes) /
                   Record::kEncodedSize;
    records_per_buffer_ = n == 0 ? 1 : n;
  }
}

void Collector::annotate(std::uint64_t seed, std::string label) {
  CHECK(writer_ == nullptr,
        "Collector::annotate after start_spilling: the spill writer already "
        "holds the header");
  header_.seed = seed;
  header_.label = std::move(label);
}

void Collector::start_spilling(const SpillTarget& target,
                               const SpillWriterOptions& options) {
  CHECK(writer_ == nullptr, "Collector::start_spilling called twice");
  CHECK(records_seen_ == 0,
        "Collector::start_spilling after records were collected");
  writer_ = std::make_unique<SpillWriter>(target, header_, options);
}

void Collector::append(Record record) {
  CHECK(writer_ != nullptr, "Collector::append before start_spilling");
  CHECK(record.node >= 0 && record.node < machine_->compute_nodes(),
        "record from unknown node ", record.node, " (machine has ",
        machine_->compute_nodes(), " compute nodes)");
  const MicroSec now = machine_->engine().now();
  record.timestamp = machine_->clock(record.node).local_time(now);
  auto& buf = buffers_[static_cast<std::size_t>(record.node)];
  // Monotone per-node record times: a node's drifting clock still only runs
  // forwards, so a regression here means engine time ran backwards or the
  // drift model produced a non-monotone mapping.
  CHECK(!buf.any_records || record.timestamp >= buf.last_timestamp,
        "node ", record.node, " clock ran backwards: ", record.timestamp,
        " after ", buf.last_timestamp);
  buf.last_timestamp = record.timestamp;
  buf.any_records = true;
  buf.records.push_back(record);
  ++records_seen_;
  if (buf.records.size() >= records_per_buffer()) flush_node(record.node);
}

void Collector::append_job_event(Record record) {
  // Job starts/ends come from the resource manager on the service node, so
  // they carry the collector's (reference) clock and skip node buffers.
  // They must not be attributed to a compute node: that would both apply a
  // bogus drift correction to them and pollute that node's clock fit.
  CHECK(writer_ != nullptr,
        "Collector::append_job_event before start_spilling");
  record.timestamp = machine_->engine().now();
  record.node = kServiceNode;
  TraceBlock block;
  block.node = record.node;
  block.sent_local = record.timestamp;
  block.recv_global = record.timestamp;
  block.records.push_back(record);
  writer_->append(block);
  ++records_seen_;
}

void Collector::flush_node(NodeId node) {
  auto& buf = buffers_[static_cast<std::size_t>(node)];
  if (buf.records.empty()) return;
  const MicroSec now = machine_->engine().now();
  const auto payload = static_cast<std::int64_t>(buf.records.size() *
                                                 Record::kEncodedSize);
  TraceBlock block;
  block.node = node;
  block.sent_local = machine_->clock(node).local_time(now);
  block.recv_global = now + machine_->compute_to_service(node, payload);
  block.records = std::move(buf.records);
  buf.records.clear();
  writer_->append(block);
  ++messages_;

  // Collector-side staging: model its own (untraced) CFS output.
  staged_bytes_ += payload;
  if (staged_bytes_ >= params_.collector_buffer_bytes) {
    trace_bytes_ += staged_bytes_;
    staged_bytes_ = 0;
    ++collector_writes_;
  }
}

void Collector::flush_all() {
  for (NodeId n = 0; n < machine_->compute_nodes(); ++n) flush_node(n);
  if (staged_bytes_ > 0) {
    trace_bytes_ += staged_bytes_;
    staged_bytes_ = 0;
    ++collector_writes_;
  }
}

SpilledTrace Collector::take_spilled() {
  CHECK(writer_ != nullptr, "take_spilled without start_spilling");
  flush_all();
  SpilledTrace out = writer_->finish(machine_->engine().now());
  writer_.reset();
  header_.trace_start = machine_->engine().now();
  return out;
}

}  // namespace charisma::trace
