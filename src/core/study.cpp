#include "core/study.hpp"

namespace charisma::core {

StudyOutput run_study(const StudyConfig& config) {
  StudyOutput out;
  trace::MaterializeSink sorted;
  out.trace = stream_study(config, {}, out, {&sorted});
  out.sorted = sorted.take(out.header);
  return out;
}

StudyOutput run_study_at_scale(double scale, std::uint64_t seed) {
  StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return run_study(config);
}

}  // namespace charisma::core
