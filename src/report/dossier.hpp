/**
 * @file
 * Provenance dossiers (DESIGN.md §12): everything the pipeline knows
 * about one finding, assembled from the corpus store and (optionally)
 * the structured event log, keyed by the finding's VerdictKey
 * fingerprint — the same string the verdict cache and the events
 * carry. A dossier walks the full lineage: generator seed → canonical
 * program text → per-build eliminated/missed marker sets → killer-pass
 * attribution → cached reduction verdict → reduction trajectory.
 *
 * Dossiers are derived data: buildDossier never writes, and everything
 * in it comes from store contents covered by the checkpoint/resume
 * bit-identity contract (plus the deterministic event log), so a
 * dossier built from a killed-and-resumed store equals one from an
 * uninterrupted run.
 */
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/triage.hpp"
#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "report/event_log.hpp"

namespace dce::report {

/** One build's verdict on the dossier's program. */
struct DossierBuild {
    std::string name; ///< BuildSpec::name(), "build<i>" w/o checkpoint
    uint64_t aliveMarkers = 0;  ///< |alive in assembly|
    uint64_t missedMarkers = 0; ///< |missed| (truly dead but present)
    /** Does this build miss the dossier's (first) marker? */
    bool missesMarker = false;
    /** Pass that eliminated the marker, when the build eliminated it
     * and the campaign ran with collectRemarks ("" otherwise). */
    std::string killerPass;
};

/** The reduction trajectory, recovered from a reduction_finished
 * event when an event log is supplied. */
struct DossierReduction {
    uint64_t tests = 0;
    uint64_t linesBefore = 0;
    uint64_t linesAfter = 0;
    uint64_t passes = 0;
};

/** Full lineage of one finding. */
struct Dossier {
    std::string fingerprint;
    // Parsed out of the fingerprint.
    std::string programHash;
    std::vector<unsigned> markers;
    std::string missedBy;
    std::string reference;

    // From the stored record for programHash.
    uint64_t seed = 0;
    uint64_t slot = 0;
    uint64_t chunk = 0;
    unsigned markerCount = 0;
    uint64_t trueDead = 0;
    uint64_t trueAlive = 0;
    std::vector<DossierBuild> builds;

    std::string source; ///< canonical program text

    std::optional<core::CachedVerdict> verdict;
    std::optional<DossierReduction> reduction;
};

/**
 * Parse @p fingerprint ("prog:<hash>|markers:<m,...>|by:<b>|ref:<r>"
 * — VerdictKey::fingerprint's format). nullopt on malformed input.
 */
std::optional<core::VerdictKey>
parseFingerprint(const std::string &fingerprint);

/**
 * The dossier inputs of one store read: every stored record, indexed
 * by program hash, plus the plan's build names and the event log's
 * reduction trajectories. A report builds one snapshot and serves all
 * of its dossiers from it, so a dossier costs one hash lookup, one
 * program read and one verdict read instead of a full record load.
 */
struct DossierSnapshot {
    /** Every stored record, committed or not, in slot order. */
    std::vector<corpus::StoredRecord> records;
    /** Program hash → index in records of its lowest-slot record. */
    std::unordered_map<std::string, size_t> firstByHash;
    /** BuildSpec::name() per plan build; empty without a checkpoint,
     * in which case dossiers label builds "build<i>". */
    std::vector<std::string> buildNames;
    /** Fingerprint → trajectory of its first reduction_finished event
     * (sorted order); empty without an event log. */
    std::unordered_map<std::string, DossierReduction> reductions;
};

/** Index @p records (slot order, as loadRecords returns them) with
 * @p plan's build names (null = no checkpoint) and @p log's reduction
 * trajectories (null = none). */
DossierSnapshot makeDossierSnapshot(
    std::vector<corpus::StoredRecord> records,
    const corpus::CampaignPlan *plan, const EventLog *log);

/**
 * Assemble the dossier for @p fingerprint from @p snapshot, reading
 * the program text and cached verdict from @p store. Fails with
 * NotFound when the fingerprint is malformed or no stored record
 * carries its program hash, and with the store's own classification
 * on read failure.
 */
std::optional<Dossier>
buildDossier(const DossierSnapshot &snapshot, corpus::CorpusStore &store,
             const std::string &fingerprint,
             corpus::StoreError *error = nullptr);

/**
 * One-off form for a single dossier (the ops server's /dossier/<fp>):
 * loads @p store into a fresh snapshot — with the checkpointed plan's
 * build names when the store has a checkpoint — and consults @p log
 * (may be null) for the reduction trajectory.
 */
std::optional<Dossier>
buildDossier(corpus::CorpusStore &store, const EventLog *log,
             const std::string &fingerprint,
             corpus::StoreError *error = nullptr);

/** The dossier as one pretty-printed JSON object. */
std::string dossierJson(const Dossier &dossier);

/** The dossier as a human-readable Markdown document. */
std::string dossierMarkdown(const Dossier &dossier);

} // namespace dce::report
