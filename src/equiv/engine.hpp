/**
 * @file
 * The metamorphic-testing engine (DESIGN.md §16): derive semantics-
 * preserving variants of every corpus-store program, prove each
 * equivalent by execution, and hold every campaign build to the
 * regression contract the transforms imply —
 *
 *   a truly dead marker the build eliminated in the base program must
 *   stay eliminated in every equivalent variant.
 *
 * Marker indices do not correspond across re-instrumentation (a
 * transform can add or remove marker sites), so the oracle is
 * count-based: a build that misses strictly more truly-dead markers on
 * the variant than on the base has regressed, and the witness marker is
 * chosen from a marker-site kind whose missed count grew. A companion
 * instruction-count oracle flags variants whose optimized size blows
 * past the base's by a configured ratio.
 *
 * Variants that fail the equivalence check — the interpreter disagrees
 * on outputs, traps, or termination — are counted per reason and
 * discarded; they are never findings. Everything here is a pure
 * function of (store contents, options), computed per record slot and
 * merged in slot order, so summaries, events, and metrics are
 * byte-identical across thread counts and after kill + resume.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/triage.hpp"
#include "corpus/store.hpp"
#include "equiv/transforms.hpp"
#include "opt/pass.hpp"
#include "support/events.hpp"
#include "support/metrics.hpp"

namespace dce::equiv {

/** Knobs for runEquivAnalysis. */
struct EquivOptions {
    /** Variants derived per corpus program (K). */
    unsigned variantsPerProgram = 4;
    /** Maximum transforms chained into one variant. */
    unsigned maxChainLength = 3;
    /** Worker threads; 1 = serial, 0 = one per hardware thread.
     * Never affects the result. */
    unsigned threads = 1;
    /** Stream seed for variant derivation (mixed with slot + index). */
    uint64_t seed = 1;
    /** Cap on emitted findings, applied in slot order. */
    unsigned maxFindings = 64;
    /** Instruction-count outlier: a variant whose optimized module has
     * at least numerator/denominator times the base's instructions
     * (and the base has at least minInstrs) is flagged. */
    unsigned outlierNumerator = 5;
    unsigned outlierDenominator = 4;
    uint64_t outlierMinInstrs = 16;
    /** Registry for the equiv.* counters; null = the process global. */
    support::MetricsRegistry *metrics = nullptr;
    /** Sink for kPhaseEquiv events; null = no events. */
    support::EventSink *events = nullptr;
};

/** One metamorphic regression: a build misses more truly-dead markers
 * on an equivalent variant than on the base program it derives from. */
struct EquivFinding {
    uint64_t slot = 0; ///< record slot in the campaign plan
    uint64_t seed = 0; ///< the record's generator seed
    std::string baseHash;    ///< canonical hash of the base program
    std::string variantHash; ///< canonical hash of the variant
    unsigned variantIndex = 0;           ///< k in [0, K)
    std::vector<TransformKind> chain;    ///< transforms applied
    core::BuildSpec spec;                ///< the regressing build
    std::string build;                   ///< spec.name()
    size_t buildIndex = 0;               ///< index in the plan's builds
    unsigned marker = 0;      ///< witness marker (variant numbering)
    unsigned missedBase = 0;  ///< |missed truly-dead| on the base
    unsigned missedVariant = 0; ///< |missed truly-dead| on the variant
    std::string variantText;  ///< canonical instrumented variant source
    // Filled by applyTriage:
    std::string signature;
    bool confirmed = false;
    bool duplicate = false;
    bool fixed = false;
    unsigned reductionTests = 0;
};

/** A variant whose optimized size blew past the base's. */
struct EquivOutlier {
    uint64_t slot = 0;
    std::string baseHash;
    std::string variantHash;
    unsigned variantIndex = 0;
    std::vector<TransformKind> chain;
    std::string build;
    uint64_t baseInstrs = 0;
    uint64_t variantInstrs = 0;
};

/** Everything one metamorphic analysis produced. */
struct EquivSummary {
    unsigned variantsPerProgram = 0;
    uint64_t seed = 0;
    uint64_t programs = 0; ///< records analysed
    uint64_t variants = 0; ///< variants proven equivalent
    /** Rejects per reason, in two units. no-edit, stale, trap-timeout
     * and not-equivalent count discarded variants. base-invalid and
     * missing-program count store records whose base was skipped
     * before any variant was derived: once per record, not once per
     * variant it would have had. */
    std::map<std::string, uint64_t> rejects;
    std::vector<EquivFinding> findings;
    std::vector<EquivOutlier> outliers;

    /** Sum over every reason, so it mixes both units of rejects. */
    uint64_t rejected() const;
};

/**
 * Run the metamorphic analysis over every record of @p store's
 * checkpointed campaign (builds come from the checkpoint plan).
 * Deterministic: byte-identical summary, events, and equiv.* counters
 * for every thread count. Nullopt when the store has no readable
 * checkpoint.
 */
std::optional<EquivSummary>
runEquivAnalysis(corpus::CorpusStore &store,
                 const EquivOptions &options = {});

/** Outcome of one base/variant probe under one pass configuration. */
struct PairOutcome {
    bool valid = false;       ///< both sides parsed + executed cleanly
    bool equivalent = false;  ///< observably equal behaviour
    std::set<unsigned> missedBase;    ///< truly-dead-but-alive, base
    std::set<unsigned> missedVariant; ///< truly-dead-but-alive, variant
    /** Witness when |missedVariant| > |missedBase|. */
    std::optional<unsigned> findingMarker;
};

/**
 * The oracle on one explicit (base, variant) source pair under an
 * explicit @p config — the positive-control hook: a deliberately
 * handicapped configuration (say jumpThreading = false) must turn a
 * crafted pair into a finding while the stock configuration yields
 * none. Sources are un-instrumented; both sides are instrumented,
 * executed for ground truth, and compiled with @p config at @p level.
 */
PairOutcome checkEquivPair(const std::string &base_source,
                           const std::string &variant_source,
                           const opt::PassConfig &config,
                           compiler::OptLevel level);

/** Instructions across every block of every function with a body —
 * the size measure behind the outlier oracle. */
uint64_t countInstructions(const ir::Module &module);

//===-- persistence ----------------------------------------------------===//

/** One CRC-sealed JSON line holding @p summary (equiv.json). */
std::string serializeEquivSummary(const EquivSummary &summary);

/** Verify + parse a serialized summary; nullopt on damage. */
std::optional<EquivSummary> readEquivSummary(std::string_view line);

/** Deterministic text block for campaign summaries (longrun, tests):
 * covered by the same byte-identity contract as summaryText. */
std::string equivSummaryText(const EquivSummary &summary);

//===-- triage bridge --------------------------------------------------===//

/** The core::Finding view of @p summary's findings, in order. An
 * equiv finding sets reference = missedBy: the feasibility evidence is
 * the base program, not a second build, so the reference-eliminates
 * probe is vacuous and triage skips it. */
std::vector<core::Finding> toTriageFindings(const EquivSummary &summary);

/**
 * Reduce + signature + classify @p summary's findings through
 * core::triageFindings — variant sources flow in via
 * TriageOptions::sourceFor (the findings' seeds regenerate the *base*,
 * never the variant) — and write the verdicts back into the findings
 * (signature/confirmed/duplicate/fixed/reductionTests).
 * @p options fields generator/sourceFor are overwritten.
 */
core::TriageSummary triageEquivFindings(EquivSummary &summary,
                                        core::TriageOptions options);

} // namespace dce::equiv
