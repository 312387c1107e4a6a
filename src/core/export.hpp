// Figure data export: writes every reproduced figure's series as
// gnuplot-ready TSV files plus a plot script, so the curves can be compared
// to the paper's figures visually.
#pragma once

#include <string>

#include "core/campaign.hpp"
#include "core/stream_study.hpp"

namespace charisma::core {

struct ExportResult {
  int files_written = 0;
  std::string directory;
  std::string plot_script;  // path of the generated gnuplot script
};

/// Writes fig1.tsv .. fig9.tsv (and iorate.tsv) plus plots.gp into
/// `directory` (created by the caller).  Reads the accumulators' finished
/// state and consumes the study's replay-op spill for the cache figures
/// (8/9), which run the campaign's figure points in one grouped sweep.
/// Throws std::runtime_error on I/O failure.
ExportResult export_figures(StreamedStudyOutput&& study,
                            const std::string& directory);

/// Writes campaign_studies.tsv (one row per study: identity, digest,
/// counters, measured statistics), campaign_aggregate.tsv (one row per
/// statistic: n, mean, stddev, min, max, 95% CI half-width), and — when the
/// campaign collected figures — one campaign_<figure>.tsv per figure
/// envelope (x, mean, min, max, 95% CI half-width, n per grid row) into
/// `directory` (created by the caller).  Byte-identical for any campaign
/// worker-thread count.  Throws std::runtime_error on I/O failure.
ExportResult export_campaign(const CampaignResult& campaign,
                             const std::string& directory);

}  // namespace charisma::core
