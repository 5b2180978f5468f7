/**
 * @file
 * Campaign report generator (DESIGN.md §12): renders the paper-style
 * summary — corpus totals, per-build missed/eliminated tables,
 * killer-pass histograms, the findings index with links into per-
 * finding dossiers — from a corpus store alone. Everything in the
 * report derives from store contents covered by the checkpoint/resume
 * bit-identity contract (records, checkpointed plan/findings/
 * counters), and nothing is wall-clock-stamped, so the report for a
 * killed-and-resumed store is byte-identical to the report for an
 * uninterrupted run; CI diffs exactly that.
 *
 * The generator also works on a store whose campaign was killed and
 * *never* resumed: it reports whatever the last checkpoint pinned,
 * flagged as incomplete.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "equiv/engine.hpp"
#include "report/dossier.hpp"
#include "report/event_log.hpp"
#include "support/metrics.hpp"

namespace dce::report {

struct CampaignReportOptions {
    /** Also render report.html (a minimal conversion of the
     * Markdown). */
    bool html = false;
    /** Write per-finding dossiers (finding-<n>.md / .json) next to
     * the report, capped at maxDossiers. */
    bool dossiers = true;
    unsigned maxDossiers = 64;
    /** Event log consulted for reduction trajectories in dossiers.
     * Deliberately NOT used for the report body, which must be
     * derivable from the store alone. Null = none. */
    const EventLog *log = nullptr;
    /**
     * Registry whose campaign.stage_us histograms feed the opt-in
     * "Pipeline latency" section (DESIGN.md §17). Latency is
     * wall-clock data, so a report rendered with it set is NOT
     * byte-identical across runs — leave null (the default) anywhere
     * the kill/resume/fleet identity contract applies.
     */
    const support::MetricsRegistry *latencyMetrics = nullptr;
};

/** Everything the report renders, assembled from one store. */
struct CampaignReportData {
    corpus::CheckpointState state; ///< plan, findings, counters
    core::Campaign campaign; ///< reconstructed from stored records
    /** VerdictKey fingerprint per state.findings entry ("" when the
     * finding's slot has no stored record — never on a healthy
     * store). */
    std::vector<std::string> fingerprints;
    uint64_t storedRecords = 0;
    uint64_t validRecords = 0;
    uint64_t totalChunks = 0;
    bool complete = false; ///< every chunk committed
    /** The store's metamorphic analysis (equiv.json), when one was
     * run — renders as the "Metamorphic testing" section. */
    std::optional<equiv::EquivSummary> equiv;
    /** One "Pipeline latency" row: percentile estimates over a
     * campaign.stage_us{stage} histogram (µs). */
    struct StageLatency {
        std::string stage;
        uint64_t count = 0;
        double meanUs = 0.0;
        double p50Us = 0.0;
        double p90Us = 0.0;
        double p99Us = 0.0;
    };
    /** Filled only via CampaignReportOptions::latencyMetrics (or by a
     * caller directly); empty = section omitted. */
    std::vector<StageLatency> latency;
};

/** The "Pipeline latency" rows for @p registry: one entry per
 * campaign.stage_us{stage} histogram, in registry (sorted) order. */
std::vector<CampaignReportData::StageLatency>
collectStageLatency(const support::MetricsRegistry &registry);

/**
 * Assemble the report's inputs from @p store: parse the checkpoint
 * (NoCheckpoint when the store never ran a checkpointed campaign),
 * load the records once into a positionally-faithful core::Campaign,
 * and fingerprint every checkpointed finding. When @p dossiers is
 * set, the same record load is also indexed into it — every stored
 * record, committed or not, as buildDossier sees the store — with
 * @p log (may be null) feeding the reduction trajectories; the report
 * body never reads it.
 */
std::optional<CampaignReportData>
collectReportData(corpus::CorpusStore &store,
                  corpus::StoreError *error = nullptr,
                  DossierSnapshot *dossiers = nullptr,
                  const EventLog *log = nullptr);

/** Render the Markdown report body (pure; no I/O, no clock). */
std::string
renderCampaignReportMarkdown(const CampaignReportData &data);

/** Minimal Markdown-to-HTML conversion (headings, tables, code
 * fences, paragraphs) — enough to open a report in a browser. */
std::string markdownToHtml(const std::string &markdown,
                           const std::string &title);

/**
 * Generate the full report under @p out_dir (created if missing):
 * report.md, optionally report.html, and per-finding dossiers.
 * False + classified @p error on store or I/O failure.
 */
bool writeCampaignReport(corpus::CorpusStore &store,
                         const std::string &out_dir,
                         const CampaignReportOptions &options = {},
                         corpus::StoreError *error = nullptr);

} // namespace dce::report
