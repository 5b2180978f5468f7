/**
 * @file
 * The `campaign` workload: core::CampaignRunner in memory with four
 * worker threads over random 64-bit generator seeds, all ten head
 * builds, primary analysis on, remarks off — the shape of the paper's
 * Tables 1 and 2. No store, fleet, reducer or oracle runs.
 */
#include <cstdio>

#include "pipeline.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dce;

namespace {

constexpr unsigned kThreads = 4;
/** Seeds per timed round; whole rounds only. */
constexpr unsigned kRoundSeeds = 256;
/** Warm-up campaign that makes up one set-up; set-up runs kSetups
 * times and reports the median. */
constexpr unsigned kWarmupSeeds = 96;
constexpr unsigned kSetups = 5;
/** Records per round recomputed independently (deep checks). */
constexpr unsigned kDeepChecksPerRound = 2;
/** Seeds of the traced breakdown (one traced run). */
constexpr unsigned kTracedSeeds = 192;
/** Of those, seeds replayed with spans off to measure the overhead. */
constexpr unsigned kOverheadSeeds = 64;

core::CampaignOptions
campaignOptions(unsigned threads, support::MetricsRegistry &registry)
{
    core::CampaignOptions options;
    options.computePrimary = true;
    options.collectRemarks = false;
    options.threads = threads;
    options.metrics = &registry;
    return options;
}

/** Check every record of @p campaign; deep-check a few. */
void
checkCampaign(const core::Campaign &campaign, Outcome &outcome)
{
    size_t n = campaign.programs.size();
    for (size_t i = 0; i < n; ++i) {
        const core::ProgramRecord &record = campaign.programs[i];
        tallyInvalid(record, outcome);
        std::string problem =
            checkRecord(record, campaign.builds.size(), true);
        if (problem.empty() && i % (n / kDeepChecksPerRound) == 0)
            problem = deepCheckRecord(record, campaign.builds, {});
        if (!problem.empty())
            outcome.opFailed(problem);
    }
}

struct Timed {
    double wall = 0;
    /** Per round: seeds per wall second and per CPU second. */
    std::vector<double> rates;
    std::vector<double> cpuRates;
};

/** Whole rounds of kRoundSeeds until @p seconds of round time. */
Timed
timedRounds(const core::CampaignRunner &runner, Rng &rng, double seconds,
            Outcome &outcome)
{
    Timed timed;
    while (timed.wall < seconds) {
        uint64_t first = rng.next();
        double cpu0 = cpuSeconds();
        Clock::time_point t0 = Clock::now();
        core::Campaign campaign = runner.run(first, kRoundSeeds);
        double wall = secondsSince(t0);
        timed.wall += wall;
        timed.rates.push_back(kRoundSeeds / wall);
        timed.cpuRates.push_back(kRoundSeeds / (cpuSeconds() - cpu0));
        outcome.attempt("seeds", kRoundSeeds);
        checkCampaign(campaign, outcome);
    }
    return timed;
}

double
setUp(const std::vector<core::BuildSpec> &builds, uint64_t seed)
{
    // One set-up: build the runner and push a warm-up campaign through
    // it, so lazy state (compiler specs, allocator arenas, the thread
    // pool's first spin-up) is paid before timing.
    Rng rng(seed ^ 0x5e7u);
    std::vector<double> times;
    for (unsigned i = 0; i < kSetups; ++i) {
        Clock::time_point t0 = Clock::now();
        support::MetricsRegistry registry;
        core::CampaignRunner runner(builds,
                                    campaignOptions(kThreads, registry));
        core::Campaign warm = runner.run(rng.next(), kWarmupSeeds);
        times.push_back(secondsSince(t0));
        (void)warm;
    }
    return median(times);
}

void
tracedBreakdown(const RunOptions &run, Outcome &outcome)
{
    std::vector<core::BuildSpec> builds = headBuilds();
    Rng rng(run.seed);
    uint64_t first = rng.next();

    // Parallel and serial campaigns over the same seeds.
    support::MetricsRegistry par_registry, serial_registry;
    core::CampaignRunner parallel(builds,
                                  campaignOptions(kThreads, par_registry));
    core::CampaignRunner serial(builds,
                                campaignOptions(1, serial_registry));
    Clock::time_point t0 = Clock::now();
    core::Campaign par = parallel.run(first, kTracedSeeds);
    double par_s = secondsSince(t0);
    t0 = Clock::now();
    core::Campaign ser = serial.run(first, kTracedSeeds);
    double ser_s = secondsSince(t0);
    outcome.attempt("seeds", 2 * kTracedSeeds);
    checkCampaign(par, outcome);
    checkCampaign(ser, outcome);

    // Per seed: SeedProcessor::process untraced, then the spanned
    // pipeline; their totals give the unattributed share.
    support::MetricsRegistry proc_registry;
    core::CampaignOptions proc_options = campaignOptions(1, proc_registry);
    core::SeedProcessor processor(builds, proc_options, proc_registry);
    SpanRecorder spans;
    std::vector<double> seed_us;
    double steps = 0;
    for (unsigned i = 0; i < kTracedSeeds; ++i) {
        core::SeedCounters counters;
        t0 = Clock::now();
        core::ProgramRecord record = processor.process(first + i, counters);
        seed_us.push_back(secondsSince(t0) * 1e6);
        TracedSeed traced =
            traceSeed(first + i, builds, {}, true, false, spans);
        steps += double(traced.steps);
        const core::ProgramRecord &r = traced.record;
        if (r.valid != record.valid || r.trueAlive != record.trueAlive ||
            r.alive != record.alive || r.missed != record.missed ||
            r.primary != record.primary)
            outcome.opFailed("seed " + std::to_string(first + i) +
                             ": spanned pipeline disagrees with "
                             "SeedProcessor");
    }
    outcome.attempt("seeds", kTracedSeeds);

    double layer_us = 0;
    for (const std::string &name : seedLayerSpans())
        layer_us += spans.totalUs(name);
    double process_us = 0;
    for (double us : seed_us)
        process_us += us;
    double unattributed = 1.0 - layer_us / process_us;
    std::map<std::string, double> self_ms = spans.selfMsByLayer();

    // Tracing overhead: replay a prefix of the seeds with spans on and
    // off, alternating which goes first. A third, unspanned replay
    // collects the pass statistics.
    SpanRecorder on, off;
    off.enabled = false;
    double on_ms = 0, off_ms = 0;
    for (unsigned i = 0; i < kOverheadSeeds; ++i) {
        for (unsigned pass = 0; pass < 2; ++pass) {
            bool traced = (i + pass) % 2 == 0;
            t0 = Clock::now();
            traceSeed(first + i, builds, {}, true, false,
                      traced ? on : off);
            (traced ? on_ms : off_ms) += secondsSince(t0) * 1e3;
        }
    }
    support::MetricsRegistry pass_registry;
    for (unsigned i = 0; i < kOverheadSeeds; ++i)
        traceSeed(first + i, builds, {}, true, false, off, &pass_registry);

    double seeds = kTracedSeeds;
    double par_rate = seeds / par_s;
    double ser_rate = seeds / ser_s;
    uint64_t hits = par_registry.counterValue("campaign.cache_hits");
    uint64_t misses = par_registry.counterValue("campaign.cache_misses");

    outcome.metric("gen.generate_us", spans.meanUs("gen.generate_us"), "us");
    outcome.metric("instrument.instrument_us",
                   spans.meanUs("instrument.instrument_us"), "us");
    outcome.metric("ir.lower_us", spans.meanUs("ir.lower_us"), "us");
    outcome.metric("interp.ground_truth_us",
                   spans.meanUs("interp.ground_truth_us"), "us");
    outcome.metric("interp.steps", steps / seeds, "steps");
    outcome.metric("ir.clone_us", spans.meanUs("ir.clone_us"), "us");
    for (compiler::OptLevel level : compiler::allOptLevels()) {
        std::string name =
            std::string("opt.optimize_us.") + compiler::optLevelName(level);
        outcome.metric(name, spans.meanUs(name), "us");
    }
    outcome.metric("opt.instrs_removed",
                   double(pass_registry.counterTotal("pass.instrs_removed")),
                   "count");
    outcome.metric("compiler.survival_us",
                   spans.meanUs("compiler.survival_us"), "us");
    outcome.metric("core.primary_us",
                   spans.totalUs("core.primary_us") / seeds, "us");
    outcome.metric("core.seed_us_p50", percentile(seed_us, 0.5), "us");
    outcome.metric("core.seed_us_p99", percentile(seed_us, 0.99), "us");
    outcome.metric("core.serial_seeds_per_s", ser_rate, "seeds/s");
    outcome.metric("core.parallel_efficiency",
                   par_rate / (kThreads * ser_rate), "ratio");
    outcome.metric("core.cache_hit_ratio",
                   hits + misses ? double(hits) / double(hits + misses) : 0,
                   "ratio");
    outcome.metric("core.unattributed_share", unattributed, "ratio");
    outcome.metric("trace.overhead_share", (on_ms - off_ms) / off_ms,
                   "ratio");

    char line[256];
    std::snprintf(line, sizeof line,
                  "traced breakdown: %u seeds, spans %.1f ms of %.1f ms "
                  "in SeedProcessor::process (unattributed %.2f%%)",
                  kTracedSeeds, layer_us / 1e3, process_us / 1e3,
                  100 * unattributed);
    outcome.note(line);
    outcome.note(formatSelfTimes("campaign", self_ms));
    std::snprintf(line, sizeof line,
                  "tracing overhead: %u seeds traced %.1f ms, untraced "
                  "%.1f ms, overhead %.1f ms (%.2f%%)",
                  kOverheadSeeds, on_ms, off_ms, on_ms - off_ms,
                  100 * (on_ms - off_ms) / off_ms);
    outcome.note(line);
    if (unattributed >= 0.05)
        outcome.checkFailed("accounting gate: core.unattributed_share " +
                            std::to_string(unattributed) + " >= 0.05");
}

} // namespace

Outcome
runCampaignWorkload(const RunOptions &run)
{
    Outcome outcome;
    std::vector<core::BuildSpec> builds = headBuilds();
    double setup_s = setUp(builds, run.seed);
    if (run.trace) {
        tracedBreakdown(run, outcome);
        return outcome;
    }
    support::MetricsRegistry registry;
    core::CampaignRunner runner(builds, campaignOptions(kThreads, registry));
    Rng rng(run.seed);
    Timed timed = timedRounds(runner, rng, run.seconds, outcome);
    outcome.metric("ops_per_s", median(timed.rates), "ops/s");
    outcome.metric("ops_per_cpu_s", median(timed.cpuRates), "ops/cpu-s");
    outcome.metric("setup_s", setup_s, "s");
    char line[160];
    std::snprintf(line, sizeof line,
                  "campaign: %zu rounds of %u seeds, %.2f s, median %.1f "
                  "seeds/s",
                  timed.rates.size(), kRoundSeeds, timed.wall,
                  median(timed.rates));
    outcome.note(line);
    return outcome;
}

} // namespace perfbench
