#include "core/report.hpp"

#include <sstream>

#include "analysis/analyzers.hpp"
#include "util/units.hpp"

namespace charisma::core {

namespace {

constexpr ReportSection kSections[] = {
    {"jobs", "Jobs (Figure 1)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_job_concurrency(s.sessions).render();
     }},
    {"nodes", "Nodes per job (Figure 2)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_node_counts(s.sessions).render();
     }},
    {"population", "File population (S4.2)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_file_population(s.sessions).render();
     }},
    {"files-per-job", "Files per job (Table 1)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_files_per_job(s.sessions).render();
     }},
    {"sizes", "File sizes (Figure 3)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_file_sizes(s.sessions).render();
     }},
    {"requests", "Request sizes (Figure 4)",
     [](const StreamedStudyOutput& s) { return s.request_sizes.render(); }},
    {"sequentiality", "Sequentiality (Figures 5/6)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_sequentiality(s.sessions).render();
     }},
    {"intervals", "Interval regularity (Table 2)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_intervals(s.sessions).render();
     }},
    {"regularity", "Request-size regularity (Table 3)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_request_regularity(s.sessions).render();
     }},
    {"modes", "I/O modes (S4.6)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_mode_usage(s.sessions).render();
     }},
    {"sharing", "Sharing (Figure 7)",
     [](const StreamedStudyOutput& s) {
       return analysis::analyze_sharing(s.sessions, s.header.block_size)
           .render();
     }},
};

}  // namespace

std::span<const ReportSection> report_sections() { return kSections; }

std::string render_section(const ReportSection& section,
                           const StreamedStudyOutput& study) {
  return std::string("--- ") + section.heading + " ---\n" +
         section.render(study) + '\n';
}

std::string full_report(const StreamedStudyOutput& study,
                        const StridedStats& strided) {
  std::ostringstream out;
  out << "=== CHARISMA characterization (" << study.records << " events, "
      << util::format_duration(study.sim_end) << " simulated) ===\n\n";
  for (const ReportSection& section : kSections) {
    out << render_section(section, study);
  }
  out << "--- I/O rate over time ---\n" << study.io_rate.render() << '\n';
  out << "--- Strided rewriting (S5 recommendation) ---\n" << strided.render();
  return out.str();
}

}  // namespace charisma::core
