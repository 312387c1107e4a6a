#include "workload/source.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/check.hpp"
#include "workload/checkpoint.hpp"
#include "workload/replay.hpp"

namespace charisma::workload {

namespace {

/// Method "synthetic": the 1993 NAS reconstruction — generate() up front,
/// build_scripts() per started job.
class SyntheticSource final : public ScriptedSource {
 public:
  explicit SyntheticSource(const WorkloadConfig& config) {
    workload_ = generate(config);
  }

 protected:
  [[nodiscard]] JobScripts compile_job(std::size_t spec_index) override {
    return build_scripts(workload_.jobs[spec_index], workload_);
  }
};

/// Method "checkpoint": the Daly-interval writer (checkpoint.hpp).
class CheckpointSource final : public ScriptedSource {
 public:
  explicit CheckpointSource(const WorkloadConfig& config) {
    workload_ = build_checkpoint_workload(config);
  }

 protected:
  [[nodiscard]] JobScripts compile_job(std::size_t spec_index) override {
    return build_checkpoint_scripts(workload_.jobs[spec_index],
                                    workload_.config.checkpoint,
                                    workload_.config.scale);
  }
};

/// One built-in method: whether its spec needs a ':<arg>' (the replay log
/// path) or refuses one, and how to load it.
struct Method {
  const char* name;
  bool takes_path;
  std::unique_ptr<Source> (*load)(const SourceSpec& spec,
                                  const WorkloadConfig& config);
};

/// The fixed method table, sorted by name.
constexpr Method kMethods[] = {
    {"checkpoint", false,
     [](const SourceSpec&, const WorkloadConfig& config)
         -> std::unique_ptr<Source> {
       return std::make_unique<CheckpointSource>(config);
     }},
    {"replay", true,
     [](const SourceSpec& spec, const WorkloadConfig& config)
         -> std::unique_ptr<Source> {
       return make_replay_source(spec.path, config);
     }},
    {"synthetic", false,
     [](const SourceSpec&, const WorkloadConfig& config)
         -> std::unique_ptr<Source> {
       return std::make_unique<SyntheticSource>(config);
     }},
};

const Method* find_method(const std::string& name) {
  for (const Method& method : kMethods) {
    if (name == method.name) return &method;
  }
  return nullptr;
}

/// Why no method can load `spec`, or "" when one can.
std::string source_spec_error(const SourceSpec& spec) {
  if (spec.method.empty()) return "empty workload-source method";
  const Method* method = find_method(spec.method);
  if (method == nullptr) {
    std::string known;
    for (const auto& name : source_method_names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return "unknown workload source '" + spec.method + "' (known: " + known +
           ")";
  }
  if (method->takes_path && spec.path.empty()) {
    return "the " + spec.method + " method needs an argument: --workload=" +
           spec.method + ":<path>";
  }
  if (!method->takes_path && !spec.path.empty()) {
    return "the " + spec.method + " method takes no ':<arg>' (got '" +
           spec.path + "')";
  }
  return "";
}

}  // namespace

std::optional<SourceSpec> try_parse_source_spec(const std::string& text,
                                                std::string* error) {
  SourceSpec spec;
  const std::size_t colon = text.find(':');
  spec.method = text.substr(0, colon);
  if (colon != std::string::npos) spec.path = text.substr(colon + 1);
  *error = source_spec_error(spec);
  if (!error->empty()) return std::nullopt;
  return spec;
}

SourceSpec parse_source_spec(const std::string& text) {
  std::string error;
  const std::optional<SourceSpec> spec = try_parse_source_spec(text, &error);
  CHECK(spec.has_value(), "bad workload-source spec '", text, "': ", error);
  return *spec;
}

std::string to_string(const SourceSpec& spec) {
  return spec.path.empty() ? spec.method : spec.method + ":" + spec.path;
}

std::vector<std::string> source_method_names() {
  std::vector<std::string> names;
  for (const Method& method : kMethods) names.emplace_back(method.name);
  return names;  // kMethods is sorted
}

std::unique_ptr<Source> load_source(const SourceSpec& spec,
                                    const WorkloadConfig& config) {
  const std::string error = source_spec_error(spec);
  CHECK(error.empty(), error);
  return find_method(spec.method)->load(spec, config);
}

std::vector<std::string> ScriptedSource::start_job(std::size_t spec_index) {
  CHECK(spec_index < workload_.jobs.size(), "start_job(", spec_index,
        ") out of range (", workload_.jobs.size(), " jobs)");
  if (jobs_.empty()) jobs_.resize(workload_.jobs.size());
  ActiveJob& job = jobs_[spec_index];
  CHECK(!job.started, "job index ", spec_index, " started twice");
  JobScripts scripts = compile_job(spec_index);
  job.started = true;
  job.cursors.assign(scripts.nodes.size(), 0);
  job.nodes = std::move(scripts.nodes);
  return std::move(scripts.paths);
}

Op ScriptedSource::next(std::size_t spec_index, std::int32_t rank) {
  CHECK(spec_index < jobs_.size() && jobs_[spec_index].started,
        "next() for job index ", spec_index, " outside start_job/end_job");
  ActiveJob& job = jobs_[spec_index];
  CHECK(rank >= 0 && static_cast<std::size_t>(rank) < job.nodes.size(),
        "rank ", rank, " out of range for job index ", spec_index, " (",
        job.nodes.size(), " scripts)");
  const auto r = static_cast<std::size_t>(rank);
  std::size_t& cursor = job.cursors[r];
  const std::vector<Op>& ops = job.nodes[r].ops;
  if (cursor >= ops.size()) {
    Op end;
    end.kind = OpKind::kEnd;
    return end;
  }
  return ops[cursor++];
}

void ScriptedSource::end_job(std::size_t spec_index) {
  if (spec_index >= jobs_.size()) return;
  // A fresh slot frees the scripts now, and lets the job start again.
  jobs_[spec_index] = ActiveJob{};
}

std::vector<std::string> checkpoint_flag_names() {
  return {"chkpoint-size", "chkpoint-bw",    "chkpoint-runtime",
          "chkpoint-mtti", "chkpoint-nodes", "chkpoint-chunk"};
}

bool apply_checkpoint_flags(const util::Flags& flags, WorkloadConfig* config) {
  CheckpointConfig& c = config->checkpoint;
  const auto size = flags.try_get_double("chkpoint-size", c.size_tib);
  const auto bw = flags.try_get_double("chkpoint-bw", c.bw_gib_s);
  const auto runtime =
      flags.try_get_double("chkpoint-runtime", c.runtime_hours);
  const auto mtti = flags.try_get_double("chkpoint-mtti", c.mtti_hours);
  const auto nodes = flags.try_get_int("chkpoint-nodes", c.nodes);
  const auto chunk = flags.try_get_int("chkpoint-chunk", c.chunk_bytes);
  if (!size || !bw || !runtime || !mtti || !chunk || !nodes || *nodes < 1 ||
      *nodes > std::numeric_limits<std::int32_t>::max() ||
      !std::has_single_bit(static_cast<std::uint64_t>(*nodes)) ||
      !(*size > 0) || checkpoint_image_bytes(*size) < 1 || !(*bw > 0) ||
      !(*mtti > 0) || *chunk < 1 || *chunk > cfs::kMaxRequestBytes) {
    return false;
  }
  c.size_tib = *size;
  c.bw_gib_s = *bw;
  c.runtime_hours = *runtime;
  c.mtti_hours = *mtti;
  c.nodes = static_cast<std::int32_t>(*nodes);
  c.chunk_bytes = *chunk;
  return true;
}

}  // namespace charisma::workload
