#include "core/report.hpp"

#include <sstream>

#include "analysis/analyzers.hpp"
#include "analysis/iorate.hpp"
#include "core/strided.hpp"
#include "util/units.hpp"

namespace charisma::core {

std::string full_report(const StudyOutput& study) {
  const analysis::SessionStore& store = study.sessions;
  std::ostringstream out;
  out << "=== CHARISMA characterization ("
      << study.sorted.records.size() << " events, "
      << util::format_duration(study.sim_end) << " simulated) ===\n\n";

  out << "--- Jobs (Figure 1) ---\n"
      << analysis::analyze_job_concurrency(store).render() << '\n';
  out << "--- Nodes per job (Figure 2) ---\n"
      << analysis::analyze_node_counts(store).render() << '\n';
  out << "--- File population (S4.2) ---\n"
      << analysis::analyze_file_population(store).render() << '\n';
  out << "--- Files per job (Table 1) ---\n"
      << analysis::analyze_files_per_job(store).render() << '\n';
  out << "--- File sizes (Figure 3) ---\n"
      << analysis::analyze_file_sizes(store).render() << '\n';
  out << "--- Request sizes (Figure 4) ---\n"
      << study.request_sizes.render() << '\n';
  out << "--- Sequentiality (Figures 5/6) ---\n"
      << analysis::analyze_sequentiality(store).render() << '\n';
  out << "--- Interval regularity (Table 2) ---\n"
      << analysis::analyze_intervals(store).render() << '\n';
  out << "--- Request-size regularity (Table 3) ---\n"
      << analysis::analyze_request_regularity(store).render() << '\n';
  out << "--- I/O modes (S4.6) ---\n"
      << analysis::analyze_mode_usage(store).render() << '\n';
  out << "--- Sharing (Figure 7) ---\n"
      << analysis::analyze_sharing(store, study.header.block_size).render()
      << '\n';
  out << "--- I/O rate over time ---\n"
      << study.io_rate.render() << '\n';
  out << "--- Strided rewriting (S5 recommendation) ---\n"
      << rewrite_strided(study.sorted, study.header.io_nodes,
                         study.header.block_size)
             .render();
  return out.str();
}

}  // namespace charisma::core
