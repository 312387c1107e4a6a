// Paper-style report over a study's merge: one table of analyzer sections
// that the full report and charisma_analyze's --report both render.
#pragma once

#include <span>
#include <string>

#include "core/stream_study.hpp"
#include "core/strided.hpp"

namespace charisma::core {

/// One analyzer section of the report.
struct ReportSection {
  const char* name;  ///< the charisma_analyze --report= name
  const char* heading;
  std::string (*render)(const StreamedStudyOutput& study);
};

/// The analyzer sections, Jobs (Figure 1) through Sharing (Figure 7), in
/// output order.
[[nodiscard]] std::span<const ReportSection> report_sections();

/// "--- heading ---", the section's body, and a blank line.
[[nodiscard]] std::string render_section(const ReportSection& section,
                                         const StreamedStudyOutput& study);

/// The whole characterization, §4-style: every report section, then the
/// I/O-rate timeline and `strided` (a StridedRewriter fed by the same merge).
[[nodiscard]] std::string full_report(const StreamedStudyOutput& study,
                                      const StridedStats& strided);

}  // namespace charisma::core
