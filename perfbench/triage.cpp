/**
 * @file
 * The `triage` workload. Set-up (untimed) runs a campaign at O2 and
 * extracts differential findings as in Table 5 — alpha-vs-beta in both
 * directions — plus the commit regressions (primary missed markers of
 * a head build that the same build at commit 0 eliminates) for
 * bisection, and builds small checkpointed stores for the metamorphic
 * oracle. The inputs are dealt into slices; a timed round takes one
 * slice and runs core::triageFindings (4 threads, no verdict cache),
 * bisect::bisectRegression on every selected regression, and
 * equiv::runEquivAnalysis at K=1 with 4 threads over the slice's store
 * followed by equiv::triageEquivFindings.
 *
 * Everything compiles at O2, not O3: at O3, loop unswitching picks its
 * branch and orders its cloned blocks by iterating a pointer-keyed hash
 * set (ir::Loop::blocks), so on some programs the outcome depends on
 * heap addresses. Reduced sources then fail their own re-check, and
 * bisections end differently from one round to the next, now and then.
 */
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "bisect/bisect.hpp"
#include "core/analysis.hpp"
#include "corpus/checkpoint.hpp"
#include "equiv/engine.hpp"
#include "ir/lowering.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "reduce/reducer.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dce;
namespace fs = std::filesystem;
using compiler::CompilerId;
using compiler::OptLevel;

namespace {

constexpr unsigned kThreads = 4;
/** Rounds cycle through this many disjoint slices of the inputs, so
 * one run averages over more findings than one round holds. */
constexpr unsigned kSlices = 16;
/** Campaign seeds the findings are drawn from. */
constexpr unsigned kCampaignSeeds = 1600;
/** Findings per slice and direction: alpha-vs-beta and beta-vs-alpha
 * at O2. */
constexpr unsigned kPairFindings = 10;
/** Bisected regressions per slice. */
constexpr unsigned kMaxBisections = 4;
/** Programs in each slice's checkpointed store for the oracle; K = 1
 * variant each. */
constexpr uint64_t kStoreSeeds = 30;
constexpr unsigned kVariantsPerProgram = 1;
constexpr unsigned kSetups = 3;
/** Findings reduced serially through the timed predicate wrapper in
 * the traced run. */
constexpr unsigned kPredicateFindings = 6;
/** Candidate texts kept for the parse+sema timing. */
constexpr size_t kMaxCandidates = 4000;

struct Regression {
    core::Finding finding;
    std::unique_ptr<lang::TranslationUnit> unit;
};

/** The inputs of one round. */
struct Slice {
    std::vector<core::Finding> findings;
    std::vector<Regression> regressions;
    /** The oracle's store: the fleet plan shape, run checkpointed. */
    std::unique_ptr<corpus::CorpusStore> store;
    uint64_t equivSeed = 0; ///< variant derivation stream
};

core::BuildSpec
head(CompilerId id, OptLevel level)
{
    return {id, level, SIZE_MAX};
}

/** Everything set-up produces: the slices. */
std::vector<Slice>
setUpOnce(const RunOptions &run, Outcome &outcome)
{
    std::vector<Slice> in(kSlices);
    Rng rng(run.seed);
    uint64_t first = rng.next();
    for (Slice &slice : in)
        slice.equivSeed = rng.next();

    // Head builds plus the same builds at commit 0, whose records say
    // which missed markers the compiler's history regressed.
    core::BuildSpec a2 = head(CompilerId::Alpha, OptLevel::O2);
    core::BuildSpec b2 = head(CompilerId::Beta, OptLevel::O2);
    std::vector<core::BuildSpec> builds = {
        a2, b2, {CompilerId::Alpha, OptLevel::O2, 0},
        {CompilerId::Beta, OptLevel::O2, 0}};
    support::MetricsRegistry registry;
    core::CampaignOptions options;
    options.computePrimary = true;
    options.threads = kThreads;
    options.metrics = &registry;
    core::Campaign campaign =
        core::CampaignRunner(builds, options).run(first, kCampaignSeeds);

    // Each direction's findings are dealt round-robin over the slices.
    for (auto [by, ref] : {std::pair{a2, b2}, std::pair{b2, a2}}) {
        std::vector<core::Finding> found =
            core::collectFindings(campaign, by, ref, kPairFindings * kSlices);
        for (size_t i = 0; i < found.size(); ++i)
            in[i % kSlices].findings.push_back(found[i]);
    }

    // Bisect primary missed markers of a head build that its commit-0
    // build eliminates, dealt round-robin over the slices.
    size_t regressions = 0;
    for (const core::ProgramRecord &record : campaign.programs) {
        if (!record.valid)
            continue;
        for (size_t b = 0; b < 2; ++b) {
            for (unsigned marker : record.primary[b]) {
                if (regressions >= size_t(kMaxBisections) * kSlices ||
                    record.missed[b + 2].count(marker))
                    continue;
                in[regressions++ % kSlices].regressions.push_back(
                    {{record.seed, marker, builds[b], builds[b + 2]},
                     std::move(core::makeProgram(record.seed).unit)});
            }
        }
    }

    for (unsigned s = 0; s < kSlices; ++s) {
        std::string dir = run.workdir + "/triage-store-" + std::to_string(s);
        fs::remove_all(dir);
        corpus::StoreError error;
        Slice &slice = in[s];
        slice.store = corpus::CorpusStore::open(dir, &error);
        corpus::CampaignPlan plan;
        plan.count = kStoreSeeds;
        plan.chunkSize = 5;
        plan.randomSeeds = true;
        plan.streamSeed = rng.next();
        plan.builds = {a2, b2};
        plan.computePrimary = true;
        plan.missedByBuild = 0;
        plan.referenceBuild = 1;
        corpus::CheckpointRunOptions run_options;
        run_options.threads = kThreads;
        std::optional<corpus::CheckpointedCampaign> result =
            slice.store ? corpus::runCheckpointed(*slice.store, plan,
                                                  run_options, &error)
                        : std::nullopt;
        if (!result || !result->completed)
            outcome.checkFailed("set-up store failed: " + error.message);
    }
    return in;
}

/** The outputs of one timed round. */
struct RoundOutput {
    core::TriageSummary triage;
    std::vector<bisect::BisectResult> bisections;
    std::optional<equiv::EquivSummary> equiv;
    core::TriageSummary equivTriage;
    double wall = 0;
    double cpu = 0;
    double triageS = 0, bisectS = 0, equivS = 0;
};

core::TriageOptions
triageOptions(support::MetricsRegistry &registry)
{
    core::TriageOptions options;
    options.threads = kThreads;
    options.reduceWorkers = 1;
    options.metrics = &registry;
    return options;
}

RoundOutput
runRound(const Slice &in, support::MetricsRegistry &registry,
         SpanRecorder &spans)
{
    RoundOutput out;
    double cpu0 = cpuSeconds();
    Clock::time_point t0 = Clock::now();
    {
        SpanRecorder::Scope span(spans, "reduce", "triage.findings");
        out.triage = core::triageFindings(in.findings, triageOptions(registry));
    }
    out.triageS = secondsSince(t0);
    Clock::time_point t1 = Clock::now();
    for (const Regression &regression : in.regressions) {
        SpanRecorder::Scope span(spans, "bisect", "bisect.bisect");
        const core::Finding &f = regression.finding;
        out.bisections.push_back(bisect::bisectRegression(
            f.missedBy.id, f.missedBy.level, *regression.unit, f.marker, 0,
            compiler::spec(f.missedBy.id).headIndex()));
    }
    out.bisectS = secondsSince(t1);
    t1 = Clock::now();
    equiv::EquivOptions equiv_options;
    equiv_options.variantsPerProgram = kVariantsPerProgram;
    equiv_options.threads = kThreads;
    equiv_options.seed = in.equivSeed;
    equiv_options.metrics = &registry;
    {
        SpanRecorder::Scope span(spans, "equiv", "equiv.analysis");
        out.equiv = equiv::runEquivAnalysis(*in.store, equiv_options);
    }
    out.equivS = secondsSince(t1);
    if (out.equiv) {
        SpanRecorder::Scope span(spans, "reduce", "equiv.triage");
        out.equivTriage =
            equiv::triageEquivFindings(*out.equiv, triageOptions(registry));
    }
    out.wall = secondsSince(t0);
    out.cpu = cpuSeconds() - cpu0;
    return out;
}

/** Operations of one round: findings triaged (campaign and
 * metamorphic), bisections, and derived variants. */
void
countRound(const Slice &in, const RoundOutput &out, Outcome &outcome)
{
    outcome.attempt("findings", in.findings.size());
    outcome.attempt("bisections", in.regressions.size());
    if (out.equiv) {
        outcome.attempt("findings", out.equiv->findings.size());
        outcome.attempt("variants",
                        out.equiv->programs * kVariantsPerProgram);
    }
}

std::string
checkReport(const core::Report &report, const std::string &original)
{
    const core::Finding &f = report.finding;
    std::string tag = "finding seed " + std::to_string(f.seed) + " marker " +
                      std::to_string(f.marker) + ": ";
    support::MetricsRegistry scratch;
    core::InterestingnessTest test(f.marker, f.missedBy, f.reference,
                                   &scratch);
    core::RejectReason why{};
    if (!test.test(report.reducedSource, &why))
        return tag + "reduced source is not interesting (" +
               core::rejectReasonName(why) + ")";
    if (report.reducedSource.size() > original.size())
        return tag + "reduced source is longer than the original";
    return {};
}

std::string
checkEquivFinding(const equiv::EquivFinding &f)
{
    std::string tag = "equiv finding slot " + std::to_string(f.slot) + ": ";
    DiagnosticEngine diags;
    std::unique_ptr<lang::TranslationUnit> unit =
        lang::parseAndCheck(f.variantText, diags);
    if (!unit)
        return tag + "variant does not parse";
    std::unique_ptr<ir::Module> lowered = ir::lowerToIr(*unit);
    core::GroundTruth truth = core::groundTruthFor(*lowered, f.marker + 1);
    if (!truth.valid || truth.aliveMarkers.count(f.marker))
        return tag + "witness marker executes";
    compiler::Compilation compilation = f.spec.make().compile(*unit);
    if (!compilation.ok() ||
        !compilation.survivingMarkers().count(f.marker))
        return tag + "witness marker does not survive the build";
    return {};
}

/** Check one round's outputs, failing the operation each concerns. */
void
checkRound(const Slice &in, const RoundOutput &out, Outcome &outcome)
{
    for (const core::Report &report : out.triage.reports) {
        std::string original = lang::printUnit(
            *core::makeProgram(report.finding.seed).unit);
        std::string problem = checkReport(report, original);
        if (!problem.empty())
            outcome.opFailed(problem);
    }
    for (size_t i = 0; i < out.bisections.size(); ++i) {
        const bisect::BisectResult &result = out.bisections[i];
        const Regression &regression = in.regressions[i];
        const core::Finding &f = regression.finding;
        if (result.status != bisect::BisectStatus::Found) {
            ++outcome.invalidBy[std::string("bisect-") +
                                bisect::bisectStatusName(result.status)];
            continue;
        }
        bool bad = bisect::markerMissedAt(f.missedBy.id, f.missedBy.level,
                                          result.firstBad, *regression.unit,
                                          f.marker);
        bool good_before = result.firstBad > 0 &&
                           !bisect::markerMissedAt(
                               f.missedBy.id, f.missedBy.level,
                               result.firstBad - 1, *regression.unit,
                               f.marker);
        if (!bad || !good_before)
            outcome.opFailed("bisection seed " + std::to_string(f.seed) +
                             ": firstBad is not the first missing commit");
    }
    if (!out.equiv) {
        outcome.checkFailed("equiv analysis found no checkpoint");
        return;
    }
    // Every store record is analysed or rejected as a whole (its base
    // is invalid or missing); every variant derived from an analysed
    // one is proven equivalent or rejected with a reason.
    const equiv::EquivSummary &summary = *out.equiv;
    auto rejects = [&](const char *reason) -> uint64_t {
        auto it = summary.rejects.find(reason);
        return it == summary.rejects.end() ? 0 : it->second;
    };
    uint64_t record_rejects =
        rejects("base-invalid") + rejects("missing-program");
    if (summary.programs + record_rejects != kStoreSeeds)
        outcome.checkFailed("equiv analysis does not account for every "
                            "store record");
    if (summary.variants + summary.rejected() - record_rejects !=
        summary.programs * kVariantsPerProgram)
        outcome.checkFailed("equiv variants + rejects do not account for "
                            "every derived variant");
    for (const equiv::EquivFinding &f : summary.findings) {
        std::string problem = checkEquivFinding(f);
        if (!problem.empty())
            outcome.opFailed(problem);
    }
    for (size_t i = 0; i < out.equivTriage.reports.size(); ++i) {
        const core::Report &report = out.equivTriage.reports[i];
        std::string original;
        for (const equiv::EquivFinding &f : summary.findings) {
            if (f.seed == report.finding.seed &&
                f.marker == report.finding.marker)
                original = f.variantText;
        }
        std::string problem = checkReport(report, original);
        if (!problem.empty())
            outcome.opFailed(problem);
    }
}

/** Later rounds repeat the first one's operations; their outputs must
 * not differ. */
bool
sameOutputs(const RoundOutput &a, const RoundOutput &b)
{
    auto reduced = [](const core::TriageSummary &summary) {
        std::vector<std::string> out;
        for (const core::Report &report : summary.reports)
            out.push_back(report.reducedSource + "|" + report.signature);
        return out;
    };
    if (reduced(a.triage) != reduced(b.triage) ||
        reduced(a.equivTriage) != reduced(b.equivTriage) ||
        a.bisections.size() != b.bisections.size())
        return false;
    for (size_t i = 0; i < a.bisections.size(); ++i) {
        if (a.bisections[i].status != b.bisections[i].status ||
            a.bisections[i].firstBad != b.bisections[i].firstBad)
            return false;
    }
    return a.equiv && b.equiv &&
           equiv::equivSummaryText(*a.equiv) ==
               equiv::equivSummaryText(*b.equiv);
}

uint64_t
reducedBytes(const RoundOutput &out)
{
    uint64_t total = 0;
    for (const core::Report &report : out.triage.reports)
        total += report.reducedSource.size();
    for (const core::Report &report : out.equivTriage.reports)
        total += report.reducedSource.size();
    return total;
}

void
tracedBreakdown(const std::vector<Slice> &slices, Outcome &outcome)
{
    // One pass over every slice untraced, then one traced: the
    // difference is the tracing overhead. The traced pass's registry
    // feeds reduce.*.
    SpanRecorder off;
    off.enabled = false;
    SpanRecorder spans;
    support::MetricsRegistry untraced_registry, registry;
    double untraced_s = 0, traced_s = 0;
    double triage_s = 0, bisect_s = 0, equiv_s = 0;
    uint64_t findings = 0, bisections = 0, variants = 0, derived = 0,
             reduced = 0;
    std::map<std::string, uint64_t> equiv_rejects;
    for (const Slice &in : slices) {
        RoundOutput untraced = runRound(in, untraced_registry, off);
        countRound(in, untraced, outcome);
        checkRound(in, untraced, outcome);
        RoundOutput out = runRound(in, registry, spans);
        countRound(in, out, outcome);
        if (!sameOutputs(untraced, out))
            outcome.checkFailed("a repeated round produced other outputs");
        untraced_s += untraced.wall;
        traced_s += out.wall;
        triage_s += out.triageS;
        bisect_s += out.bisectS;
        equiv_s += out.equivS;
        findings += in.findings.size();
        bisections += in.regressions.size();
        reduced += reducedBytes(out);
        if (out.equiv) {
            variants += out.equiv->variants;
            derived += out.equiv->programs * kVariantsPerProgram;
            for (const auto &[reason, count] : out.equiv->rejects)
                equiv_rejects[reason] += count;
        }
    }

    // Predicate share and candidate parse cost: reduce the first
    // finding of the first slices serially through a timed
    // InterestingnessTest wrapper.
    std::mutex mutex;
    std::vector<std::string> candidates;
    double predicate_s = 0, reduce_s = 0;
    support::MetricsRegistry scratch;
    for (unsigned s = 0; s < kPredicateFindings; ++s) {
        const core::Finding &f = slices[s].findings.front();
        core::InterestingnessTest test(f.marker, f.missedBy, f.reference,
                                       &scratch);
        auto timed = [&](const std::string &candidate) {
            Clock::time_point t0 = Clock::now();
            bool interesting = test(candidate);
            std::lock_guard<std::mutex> lock(mutex);
            predicate_s += secondsSince(t0);
            if (candidates.size() < kMaxCandidates)
                candidates.push_back(candidate);
            return interesting;
        };
        std::string source =
            lang::printUnit(*core::makeProgram(f.seed).unit);
        SpanRecorder::Scope span(spans, "reduce", "reduce.serial");
        Clock::time_point t0 = Clock::now();
        reduce::reduceSource(source, timed, triageOptions(scratch).maxTests);
        reduce_s += secondsSince(t0);
    }
    double parse_us = 0;
    {
        SpanRecorder::Scope span(spans, "lang", "lang.parse_sema");
        Clock::time_point t0 = Clock::now();
        for (const std::string &candidate : candidates) {
            DiagnosticEngine diags;
            lang::parseAndCheck(candidate, diags);
        }
        parse_us = candidates.empty()
                       ? 0
                       : secondsSince(t0) * 1e6 / double(candidates.size());
    }

    uint64_t tests = registry.counterValue("reduce.tests");
    uint64_t rejects = registry.counterTotal("reduce.reject");
    outcome.metric("reduce.tests", double(tests), "count");
    outcome.metric("reduce.compiles",
                   double(registry.counterValue("reduce.compiles")), "count");
    outcome.metric("reduce.cache_hits",
                   double(registry.counterValue("reduce.cache_hits")),
                   "count");
    for (core::RejectReason reason :
         {core::RejectReason::ParseFail, core::RejectReason::MarkerAbsent,
          core::RejectReason::TrapTimeout, core::RejectReason::Executed,
          core::RejectReason::NotDifferential}) {
        const char *name = core::rejectReasonName(reason);
        outcome.metric(std::string("reduce.reject.") + name,
                       double(registry.counterValue("reduce.reject", name)),
                       "count");
    }
    outcome.metric("reduce.accept_ratio",
                   tests ? double(tests - rejects) / double(tests) : 0,
                   "ratio");
    outcome.metric("reduce.predicate_share",
                   reduce_s > 0 ? predicate_s / reduce_s : 0, "ratio");
    outcome.metric("reduce.reduced_bytes", double(reduced), "bytes");
    outcome.metric("lang.parse_sema_us", parse_us, "us");
    outcome.metric("bisect.bisect_ms", spans.meanUs("bisect.bisect") / 1e3,
                   "ms");
    outcome.metric("triage.findings_triaged_per_s",
                   double(findings) / triage_s, "findings/s");
    outcome.metric("triage.bisects_per_s", double(bisections) / bisect_s,
                   "bisections/s");
    outcome.metric("triage.variants_per_s", double(variants) / equiv_s,
                   "variants/s");
    outcome.metric("equiv.variant_us",
                   derived ? equiv_s * 1e6 / double(derived) : 0, "us");
    outcome.metric("equiv.variants", double(variants), "count");
    for (const auto &[reason, count] : equiv_rejects)
        outcome.metric("equiv.rejects." + reason, double(count), "count");
    outcome.metric("equiv.yield_ratio",
                   derived ? double(variants) / double(derived) : 0, "ratio");
    outcome.metric("trace.overhead_share",
                   (traced_s - untraced_s) / untraced_s, "ratio");

    outcome.note(formatSelfTimes("triage", spans.selfMsByLayer()));
    char line[256];
    std::snprintf(line, sizeof line,
                  "triage pass: triage %.2f s, bisect %.2f s, equiv %.2f s; "
                  "%zu candidates timed",
                  triage_s, bisect_s, equiv_s, candidates.size());
    outcome.note(line);
    std::snprintf(line, sizeof line,
                  "tracing overhead: pass traced %.1f ms, untraced %.1f ms, "
                  "overhead %.1f ms",
                  traced_s * 1e3, untraced_s * 1e3,
                  (traced_s - untraced_s) * 1e3);
    outcome.note(line);
}

} // namespace

Outcome
runTriageWorkload(const RunOptions &run)
{
    Outcome outcome;
    std::vector<Slice> in;
    std::vector<double> setups;
    for (unsigned i = 0; i < kSetups; ++i) {
        Clock::time_point t0 = Clock::now();
        in.clear();
        in = setUpOnce(run, outcome);
        setups.push_back(secondsSince(t0));
    }
    for (const Slice &slice : in) {
        if (slice.findings.empty() || slice.regressions.empty())
            outcome.checkFailed("set-up left a slice without findings or "
                                "regressions");
    }
    if (!outcome.correct)
        return outcome;
    size_t findings = 0, bisections = 0;
    for (const Slice &slice : in) {
        findings += slice.findings.size();
        bisections += slice.regressions.size();
    }
    char pool[160];
    std::snprintf(pool, sizeof pool,
                  "triage inputs: %u slices, %zu findings, %zu bisections, "
                  "%llu store programs",
                  kSlices, findings, bisections,
                  (unsigned long long)(kSlices * kStoreSeeds));
    outcome.note(pool);
    if (run.trace) {
        tracedBreakdown(in, outcome);
        return outcome;
    }

    // Whole cycles over the slices until the time is spent: each
    // slice's first round is checked, later ones must repeat it.
    support::MetricsRegistry registry;
    SpanRecorder off;
    off.enabled = false;
    double wall = 0;
    uint64_t reduced = 0;
    std::vector<double> rates, cpu_rates;
    std::vector<RoundOutput> first;
    while (wall < run.seconds) {
        for (unsigned s = 0; s < kSlices; ++s) {
            const Slice &slice = in[s];
            RoundOutput out = runRound(slice, registry, off);
            countRound(slice, out, outcome);
            // The rate counts findings triaged, the operation that
            // dominates a round; bisections and variants ride along.
            double ops = double(slice.findings.size() +
                                (out.equiv ? out.equiv->findings.size() : 0));
            wall += out.wall;
            rates.push_back(ops / out.wall);
            cpu_rates.push_back(ops / out.cpu);
            if (first.size() < kSlices) {
                checkRound(slice, out, outcome);
                reduced += reducedBytes(out);
                first.push_back(std::move(out));
            } else if (!sameOutputs(first[s], out)) {
                outcome.checkFailed("a repeated round produced other "
                                    "outputs");
            }
        }
    }
    outcome.metric("ops_per_s", median(rates), "ops/s");
    outcome.metric("ops_per_cpu_s", median(cpu_rates), "ops/cpu-s");
    outcome.metric("setup_s", median(setups), "s");
    char line[200];
    std::snprintf(line, sizeof line,
                  "triage: %zu rounds over %u slices, %.2f s, median %.1f "
                  "ops/s; reduced sources %llu bytes",
                  rates.size(), kSlices, wall, median(rates),
                  (unsigned long long)reduced);
    outcome.note(line);
    return outcome;
}

} // namespace perfbench
