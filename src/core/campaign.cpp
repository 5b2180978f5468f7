#include "core/campaign.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "gen/mutator.hpp"
#include "ir/lowering.hpp"
#include "ir/verifier.hpp"
#include "lang/printer.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dce::core {

//===------------------------------------------------------------------===//
// BuildSpec
//===------------------------------------------------------------------===//

size_t
BuildSpec::resolvedCommit() const
{
    return commit == SIZE_MAX ? compiler::spec(id).headIndex()
                              : commit;
}

std::string
BuildSpec::name() const
{
    // Same format as Compiler::describe(), straight from the spec
    // tables — no Compiler (and no pass pipeline) is constructed.
    const compiler::CompilerSpec &cspec = compiler::spec(id);
    return std::string(compiler::compilerName(id)) + "-" +
           compiler::optLevelName(level) + "@" +
           cspec.history()[resolvedCommit()].hash;
}

//===------------------------------------------------------------------===//
// Campaign: handles and totals
//===------------------------------------------------------------------===//

std::vector<std::string>
Campaign::buildNames() const
{
    std::vector<std::string> names;
    names.reserve(builds.size());
    for (const BuildSpec &spec : builds)
        names.push_back(spec.name());
    return names;
}

std::optional<BuildId>
Campaign::findBuild(std::string_view name) const
{
    for (size_t i = 0; i < builds.size(); ++i) {
        if (builds[i].name() == name)
            return BuildId{i};
    }
    return std::nullopt;
}

std::optional<BuildId>
Campaign::findBuild(const BuildSpec &spec) const
{
    for (size_t i = 0; i < builds.size(); ++i) {
        if (builds[i] == spec)
            return BuildId{i};
    }
    return std::nullopt;
}

BuildId
Campaign::idOf(std::string_view name) const
{
    return findBuild(name).value_or(BuildId{});
}

uint64_t
Campaign::totalMarkers() const
{
    uint64_t total = 0;
    for (const ProgramRecord &record : programs) {
        if (record.valid)
            total += record.markerCount;
    }
    return total;
}

uint64_t
Campaign::totalDead() const
{
    uint64_t total = 0;
    for (const ProgramRecord &record : programs) {
        if (record.valid)
            total += record.trueDead.size();
    }
    return total;
}

uint64_t
Campaign::totalAlive() const
{
    uint64_t total = 0;
    for (const ProgramRecord &record : programs) {
        if (record.valid)
            total += record.trueAlive.size();
    }
    return total;
}

uint64_t
Campaign::totalMissed(BuildId build) const
{
    if (!build.valid())
        return 0;
    uint64_t total = 0;
    for (const ProgramRecord &record : programs) {
        if (record.valid)
            total += record.missedFor(build).size();
    }
    return total;
}

uint64_t
Campaign::totalPrimaryMissed(BuildId build) const
{
    if (!build.valid())
        return 0;
    uint64_t total = 0;
    for (const ProgramRecord &record : programs) {
        if (record.valid && !record.primary.empty())
            total += record.primaryFor(build).size();
    }
    return total;
}

uint64_t
Campaign::totalMissedVersus(BuildId by, BuildId reference) const
{
    if (!by.valid() || !reference.valid())
        return 0;
    uint64_t total = 0;
    for (const ProgramRecord &record : programs) {
        if (!record.valid)
            continue;
        // Missed by `by`, eliminated by `reference`.
        total += setMinus(record.missedFor(by),
                          record.missedFor(reference))
                     .size();
    }
    return total;
}

const char *
invalidReasonName(InvalidReason reason)
{
    switch (reason) {
    case InvalidReason::None:
        return "none";
    case InvalidReason::Timeout:
        return "timeout";
    case InvalidReason::Trap:
        return "trap";
    case InvalidReason::NoEntry:
        return "no-entry";
    case InvalidReason::VerifierReject:
        return "verifier-reject";
    }
    return "unknown";
}

//===------------------------------------------------------------------===//
// Execution engine
//===------------------------------------------------------------------===//

instrument::Instrumented
makeProgram(uint64_t seed, const gen::GenConfig &config)
{
    auto unit = gen::generateProgram(seed, config);
    return instrument::instrumentUnit(*unit);
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t
usSince(Clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - start)
            .count());
}

/**
 * Registry instruments resolved once per campaign run, so the per-seed
 * path does plain relaxed atomic adds — no key lookups, no registry
 * lock. Shared safely across workers.
 */
struct Instruments {
    explicit Instruments(support::MetricsRegistry &registry,
                         const std::vector<BuildSpec> &builds)
        : seeds(registry.counter("campaign.seeds")),
          cacheHits(registry.counter("campaign.cache_hits")),
          cacheMisses(registry.counter("campaign.cache_misses")),
          stageGenerate(
              registry.histogram("campaign.stage_us", "generate")),
          stageGroundTruth(
              registry.histogram("campaign.stage_us", "ground_truth")),
          stageCompile(
              registry.histogram("campaign.stage_us", "compile")),
          stagePrimary(
              registry.histogram("campaign.stage_us", "primary"))
    {
        for (const BuildSpec &build : builds) {
            markersEliminated.push_back(&registry.counter(
                "campaign.markers_eliminated",
                compiler::optLevelName(build.level)));
        }
    }

    support::Counter &
    invalidFor(support::MetricsRegistry &registry,
               InvalidReason reason)
    {
        return registry.counter("campaign.invalid",
                                invalidReasonName(reason));
    }

    support::Counter &seeds;
    support::Counter &cacheHits;
    support::Counter &cacheMisses;
    support::Histogram &stageGenerate;
    support::Histogram &stageGroundTruth;
    support::Histogram &stageCompile;
    support::Histogram &stagePrimary;
    /** Per BuildId; distinct builds at one opt level share a counter. */
    std::vector<support::Counter *> markersEliminated;
};

/** Classify why a seed failed ground truth (failure path only — the
 * verifier walk never runs for valid seeds). */
InvalidReason
classifyInvalid(const ir::Module &lowered, interp::ExecStatus status)
{
    if (!ir::verifyModule(lowered).ok())
        return InvalidReason::VerifierReject;
    switch (status) {
    case interp::ExecStatus::Timeout:
        return InvalidReason::Timeout;
    case interp::ExecStatus::Trap:
        return InvalidReason::Trap;
    case interp::ExecStatus::NoEntry:
        return InvalidReason::NoEntry;
    case interp::ExecStatus::Ok:
        break;
    }
    return InvalidReason::None;
}

/**
 * The per-seed pipeline, shared by the serial and parallel paths.
 * Pure: the returned record depends only on (seed, builds, options),
 * never on scheduling — the engine's determinism contract rests here.
 */
ProgramRecord
processSeed(uint64_t seed, const std::vector<BuildSpec> &builds,
            const CampaignOptions &options,
            support::MetricsRegistry &registry,
            Instruments &instruments, SeedCounters &counters,
            std::string *canonical_text)
{
    support::TraceSpan seed_span("seed", "campaign");
    seed_span.setArg("seed", seed);

    ProgramRecord record;
    record.seed = seed;
    std::unique_ptr<ir::Module> lowered;

    Clock::time_point t0 = Clock::now();
    instrument::Instrumented prog = [&] {
        support::TraceSpan span("generate", "campaign");
        if (options.mutator)
            return options.mutator->makeProgram(seed,
                                                options.generator);
        return makeProgram(seed, options.generator);
    }();
    record.markerCount = prog.markerCount();
    if (canonical_text)
        *canonical_text = lang::printUnit(*prog.unit);
    instruments.stageGenerate.observe(usSince(t0));

    // Per-seed tallies, folded into @p counters and the cache
    // instruments on every exit path.
    SeedCounters local;
    auto finish = [&] {
        counters.invalid += local.invalid;
        counters.cacheHits += local.cacheHits;
        counters.cacheMisses += local.cacheMisses;
        if (local.cacheHits)
            instruments.cacheHits.add(local.cacheHits);
        if (local.cacheMisses)
            instruments.cacheMisses.add(local.cacheMisses);
        instruments.seeds.add();
    };

    // The lowering cache: each seed's AST is lowered to O0 IR exactly
    // once (the miss); ground truth, every build's compile (via
    // ir::cloneModule), and the primary analysis all reuse it (hits).
    t0 = Clock::now();
    lowered = ir::lowerToIr(*prog.unit);
    ++local.cacheMisses;
    GroundTruth truth = groundTruthFor(*lowered, record.markerCount);
    ++local.cacheHits;
    instruments.stageGroundTruth.observe(usSince(t0));

    record.valid = truth.valid;
    if (!record.valid) {
        ++local.invalid;
        record.invalidReason = classifyInvalid(*lowered, truth.status);
        instruments.invalidFor(registry, record.invalidReason).add();
        finish();
        return record;
    }
    record.trueAlive = truth.aliveMarkers;
    record.trueDead = truth.deadMarkers;

    record.alive.resize(builds.size());
    record.missed.resize(builds.size());
    if (options.computePrimary)
        record.primary.resize(builds.size());
    if (options.collectRemarks)
        record.kills.resize(builds.size());

    // Built lazily on the first build with missed markers from the
    // ground-truth run's block record; the CFG then serves every
    // remaining build.
    std::optional<PrimaryAnalysis> primary_analysis;

    for (size_t b = 0; b < builds.size(); ++b) {
        t0 = Clock::now();
        support::RemarkCollector remarks;
        std::set<unsigned> alive = aliveMarkers(
            *lowered, builds[b].make(),
            {options.collectRemarks ? &remarks : nullptr, nullptr},
            options.survivalSource);
        ++local.cacheHits;
        record.missed[b] = missedMarkers(alive, truth);
        record.alive[b] = std::move(alive);
        instruments.stageCompile.observe(usSince(t0));

        // missed ⊆ trueDead, so the difference is exactly the markers
        // this build eliminated.
        instruments.markersEliminated[b]->add(
            record.trueDead.size() - record.missed[b].size());

        if (options.collectRemarks) {
            // Attribute every eliminated marker. The PassManager
            // census guarantees at most one MarkerEliminated remark
            // per marker; markers with none were dropped by the O0
            // front end before the pipeline ran.
            for (unsigned marker : record.trueDead) {
                if (record.missed[b].count(marker))
                    continue;
                if (const support::Remark *killer =
                        remarks.killerOf(marker)) {
                    record.kills[b].push_back(
                        {marker, killer->pass, killer->passIndex});
                } else {
                    record.kills[b].push_back({marker, "lowering", 0});
                }
            }
        }

        if (options.computePrimary && !record.missed[b].empty()) {
            t0 = Clock::now();
            support::TraceSpan primary_span("primary", "campaign");
            if (!primary_analysis) {
                primary_analysis.emplace(*lowered, truth);
                ++local.cacheHits;
            }
            record.primary[b] =
                primary_analysis->primary(record.missed[b]);
            instruments.stagePrimary.observe(usSince(t0));
        }
    }
    finish();
    return record;
}

unsigned
resolveThreads(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
resolveChunkSize(unsigned requested, unsigned count, unsigned threads)
{
    if (requested != 0)
        return requested;
    // Several chunks per worker so stragglers rebalance, but chunks
    // big enough that the shared-counter traffic stays negligible.
    unsigned chunk = count / (threads * 8);
    return chunk ? chunk : 1;
}

} // namespace

//===------------------------------------------------------------------===//
// SeedProcessor
//===------------------------------------------------------------------===//

struct SeedProcessor::Impl {
    Impl(const std::vector<BuildSpec> &builds,
         const CampaignOptions &options,
         support::MetricsRegistry &registry)
        : builds(builds), options(options), registry(registry),
          instruments(registry, builds)
    {
    }

    const std::vector<BuildSpec> &builds;
    const CampaignOptions &options;
    support::MetricsRegistry &registry;
    Instruments instruments;
};

SeedProcessor::SeedProcessor(const std::vector<BuildSpec> &builds,
                             const CampaignOptions &options,
                             support::MetricsRegistry &registry)
    : impl_(std::make_unique<Impl>(builds, options, registry))
{
}

SeedProcessor::~SeedProcessor() = default;

ProgramRecord
SeedProcessor::process(uint64_t seed, SeedCounters &counters,
                       std::string *canonical_text) const
{
    return processSeed(seed, impl_->builds, impl_->options,
                       impl_->registry, impl_->instruments, counters,
                       canonical_text);
}

CampaignRunner::CampaignRunner(std::vector<BuildSpec> builds,
                               CampaignOptions options)
    : builds_(std::move(builds)), options_(std::move(options))
{
}

Campaign
CampaignRunner::run(uint64_t first_seed, unsigned count) const
{
    support::TraceSpan campaign_span("campaign", "campaign");
    campaign_span.setArg("seeds", count);

    Campaign campaign;
    campaign.builds = builds_;
    campaign.programs.resize(count); // disjoint slots, one per seed
    campaign.metrics.seedsDone = count;

    {
        std::string names;
        for (const BuildSpec &spec : builds_) {
            if (!names.empty())
                names += ',';
            names += spec.name();
        }
        support::Event started(
            "campaign_started", {support::kPhaseCampaign, 0, 0});
        started.num("first_seed", first_seed)
            .num("seeds", count)
            .str("builds", names);
        support::emitEvent(options_.events, std::move(started));
    }

    support::MetricsRegistry &registry =
        options_.metrics ? *options_.metrics
                         : support::MetricsRegistry::global();
    SeedProcessor processor(builds_, options_, registry);

    unsigned threads = resolveThreads(options_.threads);
    unsigned chunk = resolveChunkSize(options_.chunkSize, count,
                                      threads);

    // Shared progress state. Records go straight into their slot; the
    // mutex only guards progress folding and observer invocation.
    std::mutex progress_mutex;
    CampaignProgress progress;
    progress.seedsTotal = count;

    Clock::time_point wall_start = Clock::now();
    support::ThreadPool pool(threads);
    // Folds one seed's counters into the shared progress (caller holds
    // no lock; this takes it). The metric instruments were already
    // updated inside SeedProcessor::process.
    auto fold = [&](SeedCounters &counters) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++progress.seedsDone;
        progress.invalidPrograms += counters.invalid;
        progress.cacheHits += counters.cacheHits;
        progress.cacheMisses += counters.cacheMisses;
        counters = SeedCounters{};
        if (options_.observer)
            options_.observer(progress);
    };

    pool.forChunks(count, chunk, [&](size_t begin, size_t end) {
        support::TraceSpan chunk_span("chunk", "campaign");
        chunk_span.setArg("seeds", end - begin);
        SeedCounters counters;
        for (size_t i = begin; i < end; ++i) {
            campaign.programs[i] =
                processor.process(first_seed + i, counters);
            fold(counters);
        }
    });

    campaign.metrics.wallSeconds = secondsSince(wall_start);

    {
        uint64_t invalid = 0;
        {
            std::lock_guard<std::mutex> lock(progress_mutex);
            invalid = progress.invalidPrograms;
        }
        support::Event finished(
            "campaign_finished", {support::kPhaseCampaignEnd, 0, 0});
        finished.num("seeds_done", count).num("invalid", invalid);
        support::emitEvent(options_.events, std::move(finished));
    }
    return campaign;
}

Campaign
runCampaign(uint64_t first_seed, unsigned count,
            const std::vector<BuildSpec> &builds,
            const CampaignOptions &options)
{
    return CampaignRunner(builds, options).run(first_seed, count);
}

} // namespace dce::core
