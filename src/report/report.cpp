#include "report/report.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "core/triage.hpp"
#include "support/json.hpp"

namespace fs = std::filesystem;

namespace dce::report {

namespace {

void
setError(corpus::StoreError *error, corpus::StoreStatus status,
         std::string message)
{
    if (error) {
        error->status = status;
        error->message = std::move(message);
    }
}

bool
writeFile(const fs::path &path, const std::string &text,
          corpus::StoreError *error)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(),
              static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
        setError(error, corpus::StoreStatus::IoError,
                 "write " + path.string() + " failed");
        return false;
    }
    return true;
}

/** Minimal inline-HTML escaping for the Markdown converter. */
std::string
htmlEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '&':
            out += "&amp;";
            break;
        case '<':
            out += "&lt;";
            break;
        case '>':
            out += "&gt;";
            break;
        default:
            out += c;
        }
    }
    return out;
}

/** Split @p text into lines (trailing newline tolerated). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < text.size()) {
        size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        lines.push_back(text.substr(begin, end - begin));
        begin = end + 1;
    }
    return lines;
}

/** Render one Markdown table row's cells as HTML @p tag cells. */
std::string
tableRow(const std::string &line, const char *tag)
{
    std::string out = "<tr>";
    size_t begin = 1; // skip the leading '|'
    while (begin < line.size()) {
        size_t bar = line.find('|', begin);
        if (bar == std::string::npos)
            break;
        std::string cell = line.substr(begin, bar - begin);
        // Trim the cell.
        size_t first = cell.find_first_not_of(' ');
        size_t last = cell.find_last_not_of(' ');
        cell = first == std::string::npos
                   ? ""
                   : cell.substr(first, last - first + 1);
        out += std::string("<") + tag + ">" + htmlEscape(cell) +
               "</" + tag + ">";
        begin = bar + 1;
    }
    out += "</tr>\n";
    return out;
}

} // namespace

std::optional<CampaignReportData>
collectReportData(corpus::CorpusStore &store,
                  corpus::StoreError *error, DossierSnapshot *dossiers,
                  const EventLog *log)
{
    std::optional<corpus::CheckpointState> state =
        corpus::readCheckpointState(store, error);
    if (!state)
        return std::nullopt;

    CampaignReportData data;
    data.state = std::move(*state);
    const corpus::CampaignPlan &plan = data.state.plan;

    unsigned chunk_size = plan.chunkSize ? plan.chunkSize : 1;
    data.totalChunks = (plan.count + chunk_size - 1) / chunk_size;
    data.complete = data.state.completed.size() == data.totalChunks;

    // Reconstruct the campaign positionally: records land in their
    // plan slot, uncommitted slots stay invalid (and are excluded
    // from every total by the valid flag).
    data.campaign.builds = plan.builds;
    data.campaign.programs.resize(plan.count);
    corpus::StoreError load_error;
    std::vector<corpus::StoredRecord> records =
        store.loadRecords(&load_error);
    if (!load_error.ok()) {
        setError(error, load_error.status, load_error.message);
        return std::nullopt;
    }
    std::map<uint64_t, std::string> hash_by_slot;
    for (const corpus::StoredRecord &stored : records) {
        // Checkpoint-committed chunks only: records landed after the
        // last checkpoint are durable but not yet *named*, and the
        // report must describe exactly the state a resume would keep —
        // it is also what makes a live /report render equal the
        // post-crash on-disk render of the same store.
        if (!data.state.completed.count(stored.chunk))
            continue;
        ++data.storedRecords;
        if (stored.record.valid)
            ++data.validRecords;
        hash_by_slot[stored.slot] = stored.programHash;
        if (stored.slot < data.campaign.programs.size())
            data.campaign.programs[stored.slot] = stored.record;
    }
    data.campaign.metrics.seedsDone = data.storedRecords;
    if (dossiers)
        *dossiers = makeDossierSnapshot(std::move(records), &plan, log);

    // Fingerprint the checkpointed findings — the key that links the
    // findings index, the dossiers, and the verdict cache.
    for (const corpus::StoredFinding &stored : data.state.findings) {
        auto hash = hash_by_slot.find(stored.slot);
        if (hash == hash_by_slot.end()) {
            data.fingerprints.push_back("");
            continue;
        }
        core::VerdictKey key;
        key.programHash = hash->second;
        key.markers = {stored.finding.marker};
        key.missedBy = stored.finding.missedBy.name();
        key.reference = stored.finding.reference.name();
        data.fingerprints.push_back(key.fingerprint());
    }

    // The metamorphic analysis is optional state: a store that never
    // ran one simply has no section. A damaged equiv.json is treated
    // the same (the seal catches it), never a report failure.
    if (std::optional<std::string> line = store.readEquivState())
        data.equiv = equiv::readEquivSummary(*line);

    setError(error, corpus::StoreStatus::Ok, "");
    return data;
}

std::vector<CampaignReportData::StageLatency>
collectStageLatency(const support::MetricsRegistry &registry)
{
    constexpr std::string_view prefix = "campaign.stage_us{";
    std::vector<CampaignReportData::StageLatency> out;
    for (const auto &[key, snapshot] : registry.histograms()) {
        if (key.compare(0, prefix.size(), prefix) != 0 ||
            key.back() != '}')
            continue;
        CampaignReportData::StageLatency row;
        row.stage = key.substr(prefix.size(),
                               key.size() - prefix.size() - 1);
        row.count = snapshot.count;
        row.meanUs = snapshot.count
                         ? static_cast<double>(snapshot.sum) /
                               static_cast<double>(snapshot.count)
                         : 0.0;
        row.p50Us = support::Histogram::percentileFromBuckets(
            snapshot.buckets, snapshot.count, 0.5);
        row.p90Us = support::Histogram::percentileFromBuckets(
            snapshot.buckets, snapshot.count, 0.9);
        row.p99Us = support::Histogram::percentileFromBuckets(
            snapshot.buckets, snapshot.count, 0.99);
        out.push_back(std::move(row));
    }
    return out;
}

std::string
renderCampaignReportMarkdown(const CampaignReportData &data)
{
    const corpus::CampaignPlan &plan = data.state.plan;
    const core::Campaign &campaign = data.campaign;

    std::string out = "# Campaign report\n\n";
    out += data.complete
               ? "Status: **complete** — every chunk committed.\n\n"
               : "Status: **incomplete** — " +
                     std::to_string(data.state.completed.size()) +
                     " of " + std::to_string(data.totalChunks) +
                     " chunks committed at the last checkpoint.\n\n";

    out += "## Plan\n\n";
    out += "| field | value |\n|---|---|\n";
    out += "| seeds | " + std::to_string(plan.count) + " |\n";
    out += "| seed derivation | ";
    out += plan.randomSeeds
               ? "random (stream seed " +
                     std::to_string(plan.streamSeed) + ")"
               : "sequential from " + std::to_string(plan.firstSeed);
    out += " |\n";
    out += "| chunk size | " + std::to_string(plan.chunkSize) + " |\n";
    out += "| chunks | " + std::to_string(data.totalChunks) + " |\n";
    out += "| stored records | " +
           std::to_string(data.storedRecords) + " |\n";
    out += "| valid programs | " +
           std::to_string(data.validRecords) + " |\n";
    out += std::string("| primary analysis | ") +
           (plan.computePrimary ? "on" : "off") + " |\n";
    out += std::string("| remark attribution | ") +
           (plan.collectRemarks ? "on" : "off") + " |\n\n";

    out += "## Corpus totals\n\n";
    out += "| markers | truly dead | truly alive |\n|---|---|---|\n";
    out += "| " + std::to_string(campaign.totalMarkers()) + " | " +
           std::to_string(campaign.totalDead()) + " | " +
           std::to_string(campaign.totalAlive()) + " |\n\n";

    out += "## Per-build results\n\n";
    out += "| build | missed | primary missed | eliminated |\n";
    out += "|---|---|---|---|\n";
    uint64_t dead = campaign.totalDead();
    for (size_t i = 0; i < campaign.builds.size(); ++i) {
        core::BuildId build{i};
        uint64_t missed = campaign.totalMissed(build);
        out += "| " + campaign.builds[i].name() + " | " +
               std::to_string(missed) + " | " +
               std::to_string(campaign.totalPrimaryMissed(build)) +
               " | " + std::to_string(dead - missed) + " |\n";
    }
    out += "\n";

    bool any_kills = false;
    for (size_t i = 0; i < campaign.builds.size(); ++i) {
        core::KillerHistogram histogram =
            core::killerHistogram(campaign, core::BuildId{i});
        if (histogram.empty())
            continue;
        if (!any_kills) {
            out += "## Killer passes\n\n";
            any_kills = true;
        }
        out += "### " + campaign.builds[i].name() + "\n\n";
        out += "| pass | eliminations |\n|---|---|\n";
        for (const auto &[pass, count] : histogram.byPass)
            out += "| " + pass + " | " + std::to_string(count) +
                   " |\n";
        out += "| **total** | " +
               std::to_string(histogram.totalEliminated) + " |\n\n";
    }

    out += "## Findings\n\n";
    if (data.state.findings.empty()) {
        out += "No findings checkpointed.\n\n";
    } else {
        out += "| # | seed | marker | missed by | reference | "
               "dossier |\n|---|---|---|---|---|---|\n";
        for (size_t i = 0; i < data.state.findings.size(); ++i) {
            const corpus::StoredFinding &stored =
                data.state.findings[i];
            out += "| " + std::to_string(i) + " | " +
                   std::to_string(stored.finding.seed) + " | " +
                   std::to_string(stored.finding.marker) + " | " +
                   stored.finding.missedBy.name() + " | " +
                   stored.finding.reference.name() + " | " +
                   "[finding-" + std::to_string(i) + "](finding-" +
                   std::to_string(i) + ".md) |\n";
        }
        out += "\n";
    }

    if (data.equiv) {
        const equiv::EquivSummary &eq = *data.equiv;
        out += "## Metamorphic testing\n\n";
        out += "| field | value |\n|---|---|\n";
        out += "| programs analysed | " +
               std::to_string(eq.programs) + " |\n";
        out += "| variants per program | " +
               std::to_string(eq.variantsPerProgram) + " |\n";
        out += "| variant stream seed | " + std::to_string(eq.seed) +
               " |\n";
        out += "| equivalent variants | " +
               std::to_string(eq.variants) + " |\n";
        out += "| rejected variants | " +
               std::to_string(eq.rejectedVariants()) + " |\n";
        out += "| skipped records | " +
               std::to_string(eq.skippedRecords()) + " |\n\n";
        if (!eq.rejects.empty()) {
            out += "| reject reason | count |\n|---|---|\n";
            for (const auto &[reason, count] : eq.rejects)
                out += "| " + reason + " | " +
                       std::to_string(count) + " |\n";
            out += "\n";
        }
        if (eq.findings.empty()) {
            out += "No metamorphic findings.\n\n";
        } else {
            out += "| # | slot | build | marker | missed base | "
                   "missed variant | chain | signature |\n"
                   "|---|---|---|---|---|---|---|---|\n";
            for (size_t i = 0; i < eq.findings.size(); ++i) {
                const equiv::EquivFinding &finding = eq.findings[i];
                std::string chain;
                for (equiv::TransformKind kind : finding.chain) {
                    if (!chain.empty())
                        chain += " + ";
                    chain += equiv::transformKindName(kind);
                }
                out += "| " + std::to_string(i) + " | " +
                       std::to_string(finding.slot) + " | " +
                       finding.build + " | " +
                       std::to_string(finding.marker) + " | " +
                       std::to_string(finding.missedBase) + " | " +
                       std::to_string(finding.missedVariant) + " | " +
                       chain + " | " +
                       (finding.signature.empty() ? "-"
                                                  : finding.signature) +
                       " |\n";
            }
            out += "\n";
        }
        if (!eq.outliers.empty()) {
            out += "### Instruction-count outliers\n\n";
            out += "| slot | build | base instrs | variant instrs |\n"
                   "|---|---|---|---|\n";
            for (const equiv::EquivOutlier &outlier : eq.outliers) {
                out += "| " + std::to_string(outlier.slot) + " | " +
                       outlier.build + " | " +
                       std::to_string(outlier.baseInstrs) + " | " +
                       std::to_string(outlier.variantInstrs) + " |\n";
            }
            out += "\n";
        }
    }

    if (!data.latency.empty()) {
        out += "## Pipeline latency\n\n";
        out += "Wall-clock per-seed stage latency (µs), percentile "
               "estimates over the\nbit-width histogram buckets of "
               "`campaign.stage_us{stage}`. This section\nis opt-in "
               "operational data and sits outside the byte-identity "
               "contract.\n\n";
        out += "| stage | samples | mean | p50 | p90 | p99 |\n"
               "|---|---|---|---|---|---|\n";
        for (const CampaignReportData::StageLatency &row :
             data.latency) {
            char cells[128];
            std::snprintf(cells, sizeof cells,
                          " %.1f | %.1f | %.1f | %.1f |", row.meanUs,
                          row.p50Us, row.p90Us, row.p99Us);
            out += "| " + row.stage + " | " +
                   std::to_string(row.count) + " |" + cells + "\n";
        }
        out += "\n";
    }

    if (!data.state.counters.empty()) {
        out += "## Campaign counters\n\n";
        out += "| counter | value |\n|---|---|\n";
        for (const auto &[key, value] : data.state.counters)
            out += "| `" + key + "` | " + std::to_string(value) +
                   " |\n";
        out += "\n";
    }
    return out;
}

std::string
markdownToHtml(const std::string &markdown, const std::string &title)
{
    std::string out = "<!DOCTYPE html>\n<html><head><meta "
                      "charset=\"utf-8\"><title>" +
                      htmlEscape(title) +
                      "</title></head><body>\n";
    bool in_code = false;
    bool in_table = false;
    for (const std::string &line : splitLines(markdown)) {
        if (line.rfind("```", 0) == 0) {
            out += in_code ? "</pre>\n" : "<pre>\n";
            in_code = !in_code;
            continue;
        }
        if (in_code) {
            out += htmlEscape(line) + "\n";
            continue;
        }
        bool is_table = !line.empty() && line.front() == '|';
        if (in_table && !is_table) {
            out += "</table>\n";
            in_table = false;
        }
        if (is_table) {
            // A |---|---| separator row marks the previous row as the
            // header; we simply skip it.
            if (line.find("---") != std::string::npos &&
                line.find_first_not_of("|- :") == std::string::npos)
                continue;
            if (!in_table) {
                out += "<table border=\"1\">\n";
                in_table = true;
                out += tableRow(line, "th");
            } else {
                out += tableRow(line, "td");
            }
            continue;
        }
        if (line.rfind("### ", 0) == 0) {
            out += "<h3>" + htmlEscape(line.substr(4)) + "</h3>\n";
        } else if (line.rfind("## ", 0) == 0) {
            out += "<h2>" + htmlEscape(line.substr(3)) + "</h2>\n";
        } else if (line.rfind("# ", 0) == 0) {
            out += "<h1>" + htmlEscape(line.substr(2)) + "</h1>\n";
        } else if (!line.empty()) {
            out += "<p>" + htmlEscape(line) + "</p>\n";
        }
    }
    if (in_table)
        out += "</table>\n";
    if (in_code)
        out += "</pre>\n";
    out += "</body></html>\n";
    return out;
}

bool
writeCampaignReport(corpus::CorpusStore &store,
                    const std::string &out_dir,
                    const CampaignReportOptions &options,
                    corpus::StoreError *error)
{
    DossierSnapshot dossiers;
    std::optional<CampaignReportData> data = collectReportData(
        store, error, options.dossiers ? &dossiers : nullptr,
        options.log);
    if (!data)
        return false;
    if (options.latencyMetrics)
        data->latency = collectStageLatency(*options.latencyMetrics);

    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
        setError(error, corpus::StoreStatus::IoError,
                 "mkdir " + out_dir + ": " + ec.message());
        return false;
    }

    std::string markdown = renderCampaignReportMarkdown(*data);
    fs::path dir(out_dir);
    if (!writeFile(dir / "report.md", markdown, error))
        return false;
    if (options.html &&
        !writeFile(dir / "report.html",
                   markdownToHtml(markdown, "Campaign report"),
                   error))
        return false;

    if (options.dossiers) {
        size_t limit = std::min<size_t>(options.maxDossiers,
                                        data->fingerprints.size());
        for (size_t i = 0; i < limit; ++i) {
            const std::string &fingerprint = data->fingerprints[i];
            if (fingerprint.empty())
                continue;
            std::optional<Dossier> dossier =
                buildDossier(dossiers, store, fingerprint, error);
            if (!dossier)
                return false;
            std::string name = "finding-" + std::to_string(i);
            if (!writeFile(dir / (name + ".md"),
                           dossierMarkdown(*dossier), error) ||
                !writeFile(dir / (name + ".json"),
                           dossierJson(*dossier), error))
                return false;
        }
    }
    setError(error, corpus::StoreStatus::Ok, "");
    return true;
}

} // namespace dce::report
