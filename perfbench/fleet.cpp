/**
 * @file
 * The `fleet` workload: the longrun plan shape (a random seed stream,
 * alpha-O3 vs beta-O3, primary analysis, killer-pass remarks, finding
 * extraction) run by fleet::FleetCoordinator with four fork+exec'd
 * workers into a fresh directory, the workers' stores merged into one,
 * and the campaign report rendered from the merged store. The
 * coordinator's ops server runs on loopback with time-series sampling
 * on, and one benchmark-side client scrapes /metrics and /progress at a
 * fixed cadence.
 */
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/merge.hpp"
#include "pipeline.hpp"
#include "report/report.hpp"
#include "serve/ops_server.hpp"
#include "support/rng.hpp"
#include "support/timeseries.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dce;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kWorkers = 4;
/** Plan seeds per timed round (one fleet lifecycle). */
constexpr uint64_t kRoundSeeds = 240;
/** Plan seeds of the warm-up fleet that makes up one set-up. */
constexpr uint64_t kWarmupSeeds = 40;
constexpr unsigned kSetups = 5;
/** Records per round recomputed independently (deep checks). */
constexpr unsigned kDeepChecksPerRound = 2;
/** Client scrape cadence and the coordinator's sampling cadence. */
constexpr unsigned kScrapeMs = 100;
constexpr uint64_t kSampleMs = 250;
/** Plan seeds the traced run pushes through the spanned pipeline. */
constexpr unsigned kTracedSeeds = 64;

corpus::CampaignPlan
fleetPlan(uint64_t stream, uint64_t count)
{
    corpus::CampaignPlan plan;
    plan.count = count;
    plan.chunkSize = 5;
    plan.randomSeeds = true;
    plan.streamSeed = stream;
    plan.builds = {
        {compiler::CompilerId::Alpha, compiler::OptLevel::O3, SIZE_MAX},
        {compiler::CompilerId::Beta, compiler::OptLevel::O3, SIZE_MAX},
    };
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

/** The plan's seeds, derived exactly as runCheckpointed does. */
std::vector<uint64_t>
planSeeds(const corpus::CampaignPlan &plan)
{
    Rng rng(plan.streamSeed);
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < plan.count; ++i)
        seeds.push_back(rng.next());
    return seeds;
}

//===-- loopback scrape client --------------------------------------------===//

struct HttpReply {
    int status = 0;
    std::string body;
};

HttpReply
httpGet(uint16_t port, const std::string &path)
{
    HttpReply reply;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return reply;
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string request = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
    std::string raw;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) ==
            0 &&
        ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
            ssize_t(request.size())) {
        char buf[16384];
        for (;;) {
            ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            raw.append(buf, size_t(n));
        }
    }
    ::close(fd);
    size_t head_end = raw.find("\r\n\r\n");
    if (raw.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos)
        return reply;
    reply.status = std::atoi(raw.c_str() + 9);
    reply.body = raw.substr(head_end + 4);
    return reply;
}

/** Sum of every series of Prometheus metric @p name in @p text. */
double
promValue(const std::string &text, const std::string &name)
{
    double total = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.rfind(name, 0) != 0 || line.size() <= name.size())
            continue;
        char next = line[name.size()];
        if (next != ' ' && next != '{')
            continue;
        total += std::atof(line.c_str() + line.rfind(' ') + 1);
    }
    return total;
}

/** One client scraping /metrics then /progress every kScrapeMs, and
 * /metrics once more at stop(). Latencies are client-side. */
class Scraper {
  public:
    explicit Scraper(uint16_t port) : port_(port)
    {
        thread_ = std::thread([this] { loop(); });
    }
    ~Scraper() { stop(); }
    Scraper(const Scraper &) = delete;
    Scraper &operator=(const Scraper &) = delete;

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                return;
            stopping_ = true;
        }
        cv_.notify_all();
        thread_.join();
        scrape("/metrics");
    }

    std::vector<double> latencyMs;
    unsigned failures = 0;
    std::string lastMetrics;

  private:
    void
    loop()
    {
        // The coordinator's SIGCHLD handler must not interrupt this
        // thread's socket calls.
        sigset_t set;
        sigemptyset(&set);
        sigaddset(&set, SIGCHLD);
        pthread_sigmask(SIG_BLOCK, &set, nullptr);
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stopping_) {
            lock.unlock();
            scrape("/metrics");
            scrape("/progress");
            lock.lock();
            cv_.wait_for(lock, std::chrono::milliseconds(kScrapeMs),
                         [this] { return stopping_; });
        }
    }

    void
    scrape(const std::string &path)
    {
        Clock::time_point t0 = Clock::now();
        HttpReply reply = httpGet(port_, path);
        latencyMs.push_back(secondsSince(t0) * 1e3);
        if (reply.status != 200)
            ++failures;
        else if (path == "/metrics")
            lastMetrics = std::move(reply.body);
    }

    uint16_t port_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::thread thread_;
};

//===-- one fleet round ---------------------------------------------------===//

struct Round {
    bool ok = false;
    std::string error;
    double wall = 0;   ///< coordinator start to report written
    double runS = 0;   ///< FleetCoordinator::run
    double reportS = 0;
    fleet::FleetResult result;
    std::vector<double> scrapeMs;
    unsigned scrapeFailures = 0;
    std::string lastMetrics;
};

Round
runFleetRound(const RunOptions &run, const corpus::CampaignPlan &plan,
              const std::string &dir, SpanRecorder *spans)
{
    Round round;
    fs::remove_all(dir);
    support::MetricsRegistry registry;
    fleet::FleetOptions options;
    options.workers = kWorkers;
    options.workerExecArgv = {run.self, "fleet-worker"};
    options.metrics = &registry;
    options.snapshotIntervalMs = kSampleMs;
    fleet::FleetCoordinator coordinator(dir, plan, options);

    support::TimeSeries series;
    support::TimeSeriesSamplerOptions sampler_options;
    sampler_options.intervalMs = kSampleMs;
    sampler_options.registry = &registry;
    sampler_options.augment = [&coordinator](support::MetricsRegistry &into) {
        coordinator.mergeWorkerMetrics(into);
        into.counter("campaign.progress", "findings")
            .add(coordinator.progress().findings);
    };
    support::TimeSeriesSampler sampler(series, sampler_options);
    sampler.start();

    serve::OpsServerOptions serve_options;
    serve_options.metrics = &registry;
    serve_options.fleet = &coordinator;
    serve_options.timeseries = &series;
    serve::OpsServer ops(serve_options);
    std::string serve_error;
    if (!ops.start(&serve_error)) {
        round.error = "ops server: " + serve_error;
        return round;
    }
    Scraper scraper(ops.port());

    SpanRecorder off;
    off.enabled = false;
    SpanRecorder &rec = spans ? *spans : off;
    corpus::StoreError error;
    Clock::time_point t0 = Clock::now();
    std::optional<fleet::FleetResult> result;
    {
        SpanRecorder::Scope span(rec, "fleet", "fleet.run");
        result = coordinator.run(&error);
    }
    round.runS = secondsSince(t0);
    if (result) {
        Clock::time_point r0 = Clock::now();
        SpanRecorder::Scope span(rec, "report", "report.render");
        corpus::OpenOptions open_options;
        open_options.createIfMissing = false;
        support::MetricsRegistry store_registry;
        open_options.metrics = &store_registry;
        auto merged = corpus::CorpusStore::open(result->mergedStoreDir,
                                                &error, open_options);
        report::CampaignReportOptions report_options;
        report_options.html = true;
        round.ok = merged && report::writeCampaignReport(
                                 *merged, dir + "/report", report_options,
                                 &error);
        round.reportS = secondsSince(r0);
    }
    round.wall = secondsSince(t0);
    scraper.stop();
    ops.stop();
    sampler.stop();
    if (!round.ok) {
        round.error = "fleet round: " + error.message;
        return round;
    }
    round.result = std::move(*result);
    round.scrapeMs = scraper.latencyMs;
    round.scrapeFailures = scraper.failures;
    round.lastMetrics = scraper.lastMetrics;
    return round;
}

/** Check a finished round's on-disk outputs: scrapes, report files,
 * and the merged store with every record in it. */
void
checkRound(const corpus::CampaignPlan &plan, const std::string &dir,
           const Round &round, Outcome &outcome)
{
    if (round.scrapeFailures)
        outcome.checkFailed(std::to_string(round.scrapeFailures) +
                            " scrapes did not answer 200");
    for (const char *file : {"/report/report.md", "/report/report.html"}) {
        std::error_code ec;
        if (fs::file_size(dir + file, ec) == 0 || ec)
            outcome.checkFailed(std::string("report file missing: ") +
                                file);
    }
    corpus::StoreError error;
    corpus::OpenOptions open_options;
    open_options.createIfMissing = false;
    support::MetricsRegistry scratch;
    open_options.metrics = &scratch;
    auto store = corpus::CorpusStore::open(round.result.mergedStoreDir,
                                           &error, open_options);
    if (!store) {
        outcome.checkFailed("merged store does not reopen: " +
                            error.message);
        return;
    }
    if (store->stats().recoveredLines != 0)
        outcome.checkFailed("merged store dropped torn lines on reopen");
    std::optional<corpus::CheckpointState> state =
        corpus::readCheckpointState(*store, &error);
    if (!state || state->completed.size() !=
                      (plan.count + plan.chunkSize - 1) / plan.chunkSize)
        outcome.checkFailed("merged checkpoint missing or incomplete");
    std::vector<corpus::StoredRecord> records = store->loadRecords(&error);
    if (!error.ok()) {
        outcome.checkFailed("merged records fail verification: " +
                            error.message);
        return;
    }
    std::vector<unsigned> per_slot(plan.count, 0);
    for (const corpus::StoredRecord &stored : records) {
        if (stored.slot < plan.count)
            ++per_slot[stored.slot];
    }
    std::vector<uint64_t> seeds = planSeeds(plan);
    size_t deep_every = records.size() / kDeepChecksPerRound + 1;
    for (size_t i = 0; i < records.size(); ++i) {
        const corpus::StoredRecord &stored = records[i];
        const core::ProgramRecord &record = stored.record;
        tallyInvalid(record, outcome);
        std::string problem;
        if (stored.slot >= plan.count || record.seed != seeds[stored.slot])
            problem = "record slot/seed does not match the plan";
        if (problem.empty())
            problem = checkRecord(record, plan.builds.size(), true);
        if (problem.empty() && i % deep_every == 0)
            problem = deepCheckRecord(record, plan.builds, plan.generator);
        if (!problem.empty())
            outcome.opFailed(problem);
    }
    // A seed without exactly one record is a failed operation.
    for (uint64_t slot = 0; slot < plan.count; ++slot) {
        if (per_slot[slot] != 1)
            outcome.opFailed("plan slot " + std::to_string(slot) + " has " +
                             std::to_string(per_slot[slot]) + " records");
    }
}

/** The merged summary must equal a single-process run of the plan. */
void
checkAgainstSingleProcess(const corpus::CampaignPlan &plan,
                          const std::string &dir, const Round &round,
                          Outcome &outcome)
{
    fs::remove_all(dir);
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(dir, &error);
    corpus::CheckpointRunOptions options;
    options.threads = kWorkers;
    std::optional<corpus::CheckpointedCampaign> single =
        store ? corpus::runCheckpointed(*store, plan, options, &error)
              : std::nullopt;
    if (!single || !single->completed) {
        outcome.checkFailed("single-process reference failed: " +
                            error.message);
        return;
    }
    if (corpus::summaryText(*single) !=
        corpus::summaryText(round.result.merged))
        outcome.checkFailed("merged summaryText differs from the "
                            "single-process run");
    store.reset();
    fs::remove_all(dir);
}

double
setUp(const RunOptions &run, Outcome &outcome)
{
    // One set-up: a small fleet (fork+exec of four workers, lease
    // table, merge, report) in a fresh directory.
    Rng rng(run.seed ^ 0x5e7u);
    std::vector<double> times;
    for (unsigned i = 0; i < kSetups; ++i) {
        Clock::time_point t0 = Clock::now();
        std::string dir = run.workdir + "/fleet-setup";
        Round round = runFleetRound(run, fleetPlan(rng.next(), kWarmupSeeds),
                                    dir, nullptr);
        times.push_back(secondsSince(t0));
        if (!round.ok)
            outcome.checkFailed("set-up " + round.error);
        fs::remove_all(dir);
    }
    return median(times);
}

void
tracedBreakdown(const RunOptions &run, Outcome &outcome)
{
    Rng rng(run.seed);
    corpus::CampaignPlan plan = fleetPlan(rng.next(), kRoundSeeds);
    std::string dir = run.workdir + "/fleet";

    // The same round untraced, then traced: the difference is the
    // tracing overhead.
    Round untraced = runFleetRound(run, plan, dir, nullptr);
    if (!untraced.ok) {
        outcome.checkFailed(untraced.error);
        return;
    }
    outcome.attempt("seeds", plan.count);
    checkRound(plan, dir, untraced, outcome);

    SpanRecorder spans;
    Round round = runFleetRound(run, plan, dir, &spans);
    if (!round.ok) {
        outcome.checkFailed(round.error);
        return;
    }
    outcome.attempt("seeds", plan.count);
    checkRound(plan, dir, round, outcome);

    corpus::StoreError error;
    double merge_s = 0;
    {
        SpanRecorder::Scope span(spans, "fleet", "fleet.merge");
        Clock::time_point t0 = Clock::now();
        if (!fleet::mergeFleet(dir, &error))
            outcome.checkFailed("re-merge failed: " + error.message);
        merge_s = secondsSince(t0);
    }
    corpus::StoreStats stats;
    double reopen_ms = 0;
    {
        SpanRecorder::Scope span(spans, "corpus", "corpus.reopen");
        Clock::time_point t0 = Clock::now();
        corpus::OpenOptions open_options;
        open_options.createIfMissing = false;
        support::MetricsRegistry scratch;
        open_options.metrics = &scratch;
        auto store = corpus::CorpusStore::open(round.result.mergedStoreDir,
                                               &error, open_options);
        if (!store || !corpus::readCheckpointState(*store, &error))
            outcome.checkFailed("merged store reopen failed");
        else
            stats = store->stats();
        reopen_ms = secondsSince(t0) * 1e3;
    }
    uint64_t store_bytes = directoryBytes(round.result.mergedStoreDir);
    fs::remove_all(dir);

    // Serial baselines on the same plan: checkpointed (one process, one
    // thread) and in memory (SeedProcessor::process per seed).
    double checkpointed_s = 0;
    {
        Clock::time_point t0 = Clock::now();
        auto store = corpus::CorpusStore::open(dir, &error);
        std::optional<corpus::CheckpointedCampaign> result =
            store ? corpus::runCheckpointed(*store, plan, {}, &error)
                  : std::nullopt;
        checkpointed_s = secondsSince(t0);
        if (!result || !result->completed)
            outcome.checkFailed("checkpointed baseline failed");
        else if (corpus::summaryText(*result) !=
                 corpus::summaryText(round.result.merged))
            outcome.checkFailed("merged summaryText differs from the "
                                "single-process run");
    }
    fs::remove_all(dir);
    outcome.attempt("seeds", plan.count);
    std::vector<uint64_t> seeds = planSeeds(plan);
    double memory_s = 0;
    {
        core::CampaignOptions options;
        options.computePrimary = plan.computePrimary;
        options.collectRemarks = plan.collectRemarks;
        support::MetricsRegistry registry;
        core::SeedProcessor processor(plan.builds, options, registry);
        Clock::time_point t0 = Clock::now();
        for (uint64_t seed : seeds) {
            core::SeedCounters counters;
            std::string text;
            processor.process(seed, counters, &text);
        }
        memory_s = secondsSince(t0);
    }
    outcome.attempt("seeds", plan.count);

    // Per-seed layers on the plan's first seeds.
    SpanRecorder seed_spans;
    double steps = 0;
    for (unsigned i = 0; i < kTracedSeeds; ++i) {
        TracedSeed traced = traceSeed(seeds[i], plan.builds, plan.generator,
                                      true, true, seed_spans);
        steps += double(traced.steps);
    }
    outcome.attempt("seeds", kTracedSeeds);

    double seeds_n = double(plan.count);
    double fleet_rate = seeds_n / round.wall;
    double checkpointed_rate = seeds_n / checkpointed_s;
    double memory_rate = seeds_n / memory_s;
    outcome.metric("gen.generate_us", seed_spans.meanUs("gen.generate_us"),
                   "us");
    outcome.metric("instrument.instrument_us",
                   seed_spans.meanUs("instrument.instrument_us"), "us");
    outcome.metric("lang.print_us", seed_spans.meanUs("lang.print_us"), "us");
    outcome.metric("ir.lower_us", seed_spans.meanUs("ir.lower_us"), "us");
    outcome.metric("interp.ground_truth_us",
                   seed_spans.meanUs("interp.ground_truth_us"), "us");
    outcome.metric("interp.steps", steps / kTracedSeeds, "steps");
    outcome.metric("ir.clone_us", seed_spans.meanUs("ir.clone_us"), "us");
    outcome.metric("opt.optimize_us.O3",
                   seed_spans.meanUs("opt.optimize_us.O3"), "us");
    outcome.metric("compiler.survival_us",
                   seed_spans.meanUs("compiler.survival_us"), "us");
    outcome.metric("core.primary_us",
                   seed_spans.totalUs("core.primary_us") / kTracedSeeds, "us");
    outcome.metric("corpus.checkpointed_serial_seeds_per_s",
                   checkpointed_rate, "seeds/s");
    outcome.metric("corpus.persist_overhead_share",
                   1.0 - checkpointed_rate / memory_rate, "ratio");
    outcome.metric("corpus.reopen_ms", reopen_ms, "ms");
    outcome.metric("corpus.records", double(stats.records), "count");
    outcome.metric("corpus.bytes", double(stats.bytes), "bytes");
    outcome.metric("corpus.dedup_hits",
                   promValue(round.lastMetrics, "corpus_dedup_hits"), "count");
    outcome.metric("fleet.run_s", round.runS - merge_s, "s");
    outcome.metric("fleet.merge_s", merge_s, "s");
    outcome.metric("fleet.leases", double(round.result.leases), "count");
    outcome.metric("fleet.workers_spawned",
                   double(round.result.workersSpawned), "count");
    outcome.metric("fleet.parallel_efficiency",
                   fleet_rate / (kWorkers * checkpointed_rate), "ratio");
    outcome.metric("fleet.store_bytes", double(store_bytes), "bytes");
    outcome.metric("report.render_ms", round.reportS * 1e3, "ms");
    outcome.metric("backend.emits",
                   promValue(round.lastMetrics, "backend_emits"), "count");
    outcome.metric("serve.scrape_ms_p50", percentile(round.scrapeMs, 0.5),
                   "ms");
    outcome.metric("serve.scrape_ms_p90", percentile(round.scrapeMs, 0.9),
                   "ms");
    outcome.metric("trace.overhead_share",
                   (round.wall - untraced.wall) / untraced.wall, "ratio");

    std::map<std::string, double> self_ms = spans.selfMsByLayer();
    for (const auto &[layer, ms] : seed_spans.selfMsByLayer())
        self_ms[layer] += ms;
    outcome.note(formatSelfTimes("fleet", self_ms));
    char line[256];
    std::snprintf(line, sizeof line,
                  "fleet: %.0f seeds/s (4 workers) vs checkpointed serial "
                  "%.1f, in-memory serial %.1f; %zu scrapes",
                  fleet_rate, checkpointed_rate, memory_rate,
                  round.scrapeMs.size());
    outcome.note(line);
    std::snprintf(line, sizeof line,
                  "tracing overhead: round traced %.1f ms, untraced %.1f ms, "
                  "overhead %.1f ms",
                  round.wall * 1e3, untraced.wall * 1e3,
                  (round.wall - untraced.wall) * 1e3);
    outcome.note(line);
}

} // namespace

Outcome
runFleetWorkload(const RunOptions &run)
{
    Outcome outcome;
    double setup_s = setUp(run, outcome);
    if (run.trace) {
        tracedBreakdown(run, outcome);
        return outcome;
    }
    Rng rng(run.seed);
    std::string dir = run.workdir + "/fleet";
    double wall = 0;
    std::vector<double> rates, cpu_rates;
    while (wall < run.seconds) {
        corpus::CampaignPlan plan = fleetPlan(rng.next(), kRoundSeeds);
        double cpu0 = cpuSeconds();
        Round round = runFleetRound(run, plan, dir, nullptr);
        double cpu = cpuSeconds() - cpu0;
        outcome.attempt("seeds", plan.count);
        if (!round.ok) {
            // The whole round crashed: every seed of it failed.
            outcome.failed += plan.count;
            outcome.problems.push_back(round.error);
            break;
        }
        wall += round.wall;
        rates.push_back(double(plan.count) / round.wall);
        cpu_rates.push_back(double(plan.count) / cpu);
        checkRound(plan, dir, round, outcome);
        if (rates.size() == 1)
            checkAgainstSingleProcess(plan, run.workdir + "/single", round,
                                      outcome);
        fs::remove_all(dir);
    }
    outcome.metric("ops_per_s", median(rates), "ops/s");
    outcome.metric("ops_per_cpu_s", median(cpu_rates), "ops/cpu-s");
    outcome.metric("setup_s", setup_s, "s");
    char line[160];
    std::snprintf(line, sizeof line,
                  "fleet: %zu rounds of %llu seeds, %.2f s, median %.1f "
                  "seeds/s",
                  rates.size(), (unsigned long long)kRoundSeeds, wall,
                  median(rates));
    outcome.note(line);
    return outcome;
}

} // namespace perfbench
