/**
 * @file
 * Entry point of the workflow benchmark.
 *
 *   perfbench --workload campaign|fleet|triage --seed N --seconds S
 *             --trace 0|1 --workdir DIR
 *   perfbench fleet-worker <fleet-dir> <store-name>   (fleet worker)
 *
 * Prints the run's operation counts, invalid programs by reason and
 * any check failures, then as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Untraced runs report
 * the end-to-end metrics of the named workload; traced runs report the
 * per-layer metrics of all three.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/worker.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricSpec {
    const char *name;
    const char *unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"ops_per_s", "ops/s"},
    {"ops_per_cpu_s", "ops/cpu-s"},
    {"setup_s", "s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"gen.generate_us", "us"},
    {"instrument.instrument_us", "us"},
    {"lang.print_us", "us"},
    {"ir.lower_us", "us"},
    {"interp.ground_truth_us", "us"},
    {"interp.steps", "steps"},
    {"ir.clone_us", "us"},
    {"opt.optimize_us.O0", "us"},
    {"opt.optimize_us.O1", "us"},
    {"opt.optimize_us.Os", "us"},
    {"opt.optimize_us.O2", "us"},
    {"opt.optimize_us.O3", "us"},
    {"opt.instrs_removed", "count"},
    {"compiler.survival_us", "us"},
    {"core.primary_us", "us"},
    {"core.seed_us_p50", "us"},
    {"core.seed_us_p99", "us"},
    {"core.serial_seeds_per_s", "seeds/s"},
    {"core.parallel_efficiency", "ratio"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.unattributed_share", "ratio"},
    {"corpus.checkpointed_serial_seeds_per_s", "seeds/s"},
    {"corpus.persist_overhead_share", "ratio"},
    {"corpus.reopen_ms", "ms"},
    {"corpus.records", "count"},
    {"corpus.bytes", "bytes"},
    {"corpus.dedup_hits", "count"},
    {"fleet.run_s", "s"},
    {"fleet.merge_s", "s"},
    {"fleet.leases", "count"},
    {"fleet.workers_spawned", "count"},
    {"fleet.parallel_efficiency", "ratio"},
    {"fleet.store_bytes", "bytes"},
    {"report.render_ms", "ms"},
    {"backend.emits", "count"},
    {"serve.scrape_ms_p50", "ms"},
    {"serve.scrape_ms_p90", "ms"},
    {"reduce.tests", "count"},
    {"reduce.compiles", "count"},
    {"reduce.cache_hits", "count"},
    {"reduce.reject.parse-fail", "count"},
    {"reduce.reject.marker-absent", "count"},
    {"reduce.reject.trap-timeout", "count"},
    {"reduce.reject.executed", "count"},
    {"reduce.reject.not-differential", "count"},
    {"reduce.accept_ratio", "ratio"},
    {"reduce.predicate_share", "ratio"},
    {"reduce.reduced_bytes", "bytes"},
    {"lang.parse_sema_us", "us"},
    {"bisect.bisect_ms", "ms"},
    {"triage.findings_triaged_per_s", "findings/s"},
    {"triage.bisects_per_s", "bisections/s"},
    {"triage.variants_per_s", "variants/s"},
    {"equiv.variant_us", "us"},
    {"equiv.variants", "count"},
    {"equiv.rejects.no-edit", "count"},
    {"equiv.rejects.stale", "count"},
    {"equiv.rejects.trap-timeout", "count"},
    {"equiv.rejects.not-equivalent", "count"},
    {"equiv.rejects.base-invalid", "count"},
    {"equiv.rejects.missing-program", "count"},
    {"equiv.yield_ratio", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"process.peak_rss_mb", "MB"},
};

[[noreturn]] void
usage(const char *self)
{
    std::fprintf(stderr,
                 "usage: %s --workload campaign|fleet|triage --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n",
                 self);
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions run;
    run.self = std::filesystem::canonical("/proc/self/exe").string();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload")
            run.workload = value;
        else if (arg == "--workdir")
            run.workdir = value;
        else if (arg == "--seed")
            run.seed = std::strtoull(value.c_str(), &end, 10);
        else if (arg == "--seconds")
            run.seconds = unsigned(std::strtoul(value.c_str(), &end, 10));
        else if (arg == "--trace")
            run.trace = value == "1";
        else
            usage(argv[0]);
        if (end && *end)
            usage(argv[0]);
    }
    if (run.workdir.empty() || run.seconds == 0)
        usage(argv[0]);
    return run;
}

void
printOutcome(const RunOptions &run, const Outcome &outcome)
{
    for (const std::string &line : outcome.notes)
        std::printf("%s\n", line.c_str());
    std::string counts;
    for (const auto &[kind, n] : outcome.attemptedBy)
        counts += " " + kind + "=" + std::to_string(n);
    const char *label = run.trace ? "traced" : run.workload.c_str();
    std::printf("operations %s: attempted%s, failed=%llu\n", label,
                counts.c_str(),
                (unsigned long long)outcome.failed);
    std::string invalid;
    for (const auto &[reason, n] : outcome.invalidBy)
        invalid += " " + reason + "=" + std::to_string(n);
    std::printf("invalid programs %s:%s\n", label,
                invalid.empty() ? " none" : invalid.c_str());
    for (const std::string &problem : outcome.problems)
        std::printf("CHECK FAILED: %s\n", problem.c_str());

    const std::vector<MetricSpec> &specs = run.trace ? kPerLayer : kEndToEnd;
    std::string json = "{\"correct\": ";
    json += outcome.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &spec : specs) {
        double value = 0;
        bool found = false;
        for (const Outcome::Metric &metric : outcome.metrics) {
            if (metric.name == spec.name) {
                value = metric.value;
                found = true;
                break;
            }
        }
        // Untraced runs must measure every end-to-end metric.
        if (!run.trace && !found) {
            std::fprintf(stderr, "error: %s did not measure %s\n",
                         run.workload.c_str(), spec.name);
            std::exit(1);
        }
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "error: %s is not finite\n", spec.name);
            std::exit(1);
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        json += first ? "" : ", ";
        json += "\"" + std::string(spec.name) + "\": {\"value\": " + buf +
                ", \"unit\": \"" + spec.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 4 && std::string(argv[1]) == "fleet-worker")
        return dce::fleet::runFleetWorker(argv[2], argv[3]);
    RunOptions run = parseArgs(argc, argv);
    std::filesystem::create_directories(run.workdir);
    Outcome outcome;
    if (run.workload != "campaign" && run.workload != "fleet" &&
        run.workload != "triage")
        usage(argv[0]);
    try {
        if (run.trace) {
            // Every layer is measured in every traced run: it makes the
            // traced breakdown of all three workloads on this seed,
            // whichever one --workload names.
            outcome = runCampaignWorkload(run);
            outcome.absorb(runFleetWorkload(run));
            outcome.absorb(runTriageWorkload(run));
        } else if (run.workload == "campaign") {
            outcome = runCampaignWorkload(run);
        } else if (run.workload == "fleet") {
            outcome = runFleetWorkload(run);
        } else {
            outcome = runTriageWorkload(run);
        }
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s workload aborted: %s\n",
                     run.workload.c_str(), error.what());
        return 1;
    }
    // Largest resident set of this process or any of its children;
    // it moves with single heavy programs, so it is a per-layer
    // figure, not a bounded end-to-end one.
    char line[80];
    std::snprintf(line, sizeof line, "peak RSS: %.1f MB", peakRssMb());
    outcome.note(line);
    if (run.trace)
        outcome.metric("process.peak_rss_mb", peakRssMb(), "MB");
    printOutcome(run, outcome);
    return outcome.correct ? 0 : 1;
}
