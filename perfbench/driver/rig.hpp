// The simulated machine a study runs on, built from the library's public
// parts exactly as core::run_streamed_study builds it: engine, machine
// (clock drift seeded from the workload seed), CFS runtime, a spilling
// trace collector in core::StreamOptions' default writer mode, and the
// workload driver over an already loaded source.
#pragma once

#include <cstdint>

#include "cfs/runtime.hpp"
#include "core/stream_study.hpp"
#include "core/study.hpp"
#include "ipsc/machine.hpp"
#include "sim/engine.hpp"
#include "trace/collector.hpp"
#include "trace/spill.hpp"
#include "util/rng.hpp"
#include "workload/driver.hpp"
#include "workload/source.hpp"

namespace perfbench {

struct Rig {
  /// `source` and `budget` must outlive the rig.
  Rig(const charisma::core::StudyConfig& config,
      charisma::workload::Source& source,
      charisma::trace::SpillBudget& budget)
      : machine_rng(config.workload.seed ^ 0xC10CC10CULL),
        machine(engine, config.machine, machine_rng),
        runtime(machine, config.runtime),
        collector(machine, config.collector),
        driver(machine, runtime, collector, source) {
    collector.annotate(config.workload.seed, charisma::core::kStudyTraceLabel);
    charisma::trace::SpillWriterOptions writer;
    writer.budget = &budget;
    writer.async = charisma::core::StreamOptions{}.async_spill;
    collector.start_spilling(charisma::trace::SpillTarget::anonymous_in(""),
                             writer);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  charisma::sim::Engine engine;
  charisma::util::Rng machine_rng;
  charisma::ipsc::Machine machine;
  charisma::cfs::Runtime runtime;
  charisma::trace::Collector collector;
  charisma::workload::Driver driver;
};

}  // namespace perfbench
