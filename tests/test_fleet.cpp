/** @file Tests for the multi-process campaign fleet: lease table
 * claim/steal/fencing semantics, merged-output byte-identity against
 * a single-process run across worker counts and mid-lease crashes,
 * plan pinning of a fleet directory, and the metrics dump transport.
 *
 * Coordinator tests fork real worker processes; each gtest TEST runs
 * in its own process (gtest_discover_tests), and the in-process
 * worker path uses ThreadPool(1), which runs inline — so the forked
 * children never touch inherited threads. */
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/fleet.hpp"
#include "fleet/lease.hpp"
#include "fleet/merge.hpp"
#include "fleet/metrics_io.hpp"
#include "report/report.hpp"

namespace fs = std::filesystem;

namespace dce::fleet {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;
using core::BuildSpec;

class TempDir {
  public:
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("dce_fleet_" + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

corpus::CampaignPlan
fleetPlan(uint64_t count = 18, unsigned chunk_size = 3)
{
    corpus::CampaignPlan plan;
    plan.count = count;
    plan.chunkSize = chunk_size;
    plan.randomSeeds = true;
    plan.streamSeed = 2024;
    plan.builds = {{CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
                   {CompilerId::Beta, OptLevel::O3, SIZE_MAX}};
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

/** Reference single-process run: summary + report markdown. */
void
runReference(const std::string &dir, std::string &summary,
             std::string &report,
             const corpus::CampaignPlan &plan = fleetPlan())
{
    corpus::StoreError error;
    support::MetricsRegistry registry;
    corpus::OpenOptions open_options;
    open_options.metrics = &registry;
    auto store = corpus::CorpusStore::open(dir, &error, open_options);
    ASSERT_TRUE(store) << error.message;
    corpus::CheckpointRunOptions run;
    run.metrics = &registry;
    run.checkpointEveryChunks = 2;
    std::optional<corpus::CheckpointedCampaign> result =
        corpus::runCheckpointed(*store, plan, run, &error);
    ASSERT_TRUE(result) << error.message;
    ASSERT_TRUE(result->completed);
    summary = corpus::summaryText(*result);
    std::optional<report::CampaignReportData> data =
        report::collectReportData(*store, &error);
    ASSERT_TRUE(data) << error.message;
    report = report::renderCampaignReportMarkdown(*data);
}

std::string
renderMergedReport(const std::string &merged_dir)
{
    corpus::StoreError error;
    support::MetricsRegistry registry;
    corpus::OpenOptions open_options;
    open_options.createIfMissing = false;
    open_options.metrics = &registry;
    auto store =
        corpus::CorpusStore::open(merged_dir, &error, open_options);
    EXPECT_TRUE(store) << error.message;
    if (!store)
        return "";
    std::optional<report::CampaignReportData> data =
        report::collectReportData(*store, &error);
    EXPECT_TRUE(data) << error.message;
    if (!data)
        return "";
    return report::renderCampaignReportMarkdown(*data);
}

//===------------------------------------------------------------------===//
// Lease table semantics
//===------------------------------------------------------------------===//

TEST(Fleet, LeaseTableClaimsInOrderAndCompletes)
{
    TempDir dir("lease");
    corpus::StoreError error;
    ASSERT_TRUE(LeaseTable::init(dir.str(), 6, 2, &error))
        << error.message;
    LeaseTable table(dir.str());

    std::optional<std::vector<Lease>> leases = table.list(&error);
    ASSERT_TRUE(leases) << error.message;
    ASSERT_EQ(leases->size(), 3u);
    EXPECT_EQ((*leases)[2].beginChunk, 4u);
    EXPECT_EQ((*leases)[2].endChunk, 6u);

    std::optional<Lease> first =
        table.claim(::getpid(), "worker.0", 0, 0, &error);
    ASSERT_TRUE(first) << error.message;
    EXPECT_EQ(first->index, 0u);
    EXPECT_EQ(first->epoch, 1u);

    // A second claimant skips our live claim and gets the next lease.
    std::optional<Lease> second =
        table.claim(::getpid(), "worker.1", 0, 0, &error);
    ASSERT_TRUE(second) << error.message;
    EXPECT_EQ(second->index, 1u);

    first->counters.emplace_back("campaign.seeds_done", 6);
    first->stageUs = 123;
    first->findings.push_back({0, 2, 99, 1});
    bool stolen = true;
    ASSERT_TRUE(table.complete(*first, &stolen, &error))
        << error.message;
    EXPECT_FALSE(stolen);

    leases = table.list(&error);
    ASSERT_TRUE(leases) << error.message;
    EXPECT_EQ((*leases)[0].state, LeaseState::Done);
    ASSERT_EQ((*leases)[0].counters.size(), 1u);
    EXPECT_EQ((*leases)[0].counters[0].second, 6u);
    EXPECT_EQ((*leases)[0].stageUs, 123u);
    ASSERT_EQ((*leases)[0].findings.size(), 1u);
    EXPECT_EQ((*leases)[0].findings[0].seed, 99u);
}

TEST(Fleet, DeadOwnerLeaseIsStolenAndStaleCompletionFenced)
{
    TempDir dir("fence");
    corpus::StoreError error;
    ASSERT_TRUE(LeaseTable::init(dir.str(), 2, 2, &error));
    LeaseTable table(dir.str());

    // A child that exits immediately gives us a genuinely dead pid.
    pid_t dead = ::fork();
    ASSERT_GE(dead, 0);
    if (dead == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);

    std::optional<Lease> stale =
        table.claim(int64_t(dead), "worker.dead", 0, 0, &error);
    ASSERT_TRUE(stale) << error.message;
    EXPECT_EQ(stale->epoch, 1u);

    // The dead owner's lease is immediately claimable; the steal
    // bumps the epoch.
    std::optional<Lease> stolen_lease =
        table.claim(::getpid(), "worker.live", 0, 0, &error);
    ASSERT_TRUE(stolen_lease) << error.message;
    EXPECT_EQ(stolen_lease->index, stale->index);
    EXPECT_EQ(stolen_lease->epoch, 2u);

    // The original owner's completion arrives late: fenced out,
    // payload discarded, not an error.
    bool stolen = false;
    ASSERT_TRUE(table.complete(*stale, &stolen, &error))
        << error.message;
    EXPECT_TRUE(stolen);
    std::optional<std::vector<Lease>> leases = table.list(&error);
    ASSERT_TRUE(leases);
    EXPECT_EQ((*leases)[0].state, LeaseState::Claimed);

    // The thief's completion (current epoch) lands.
    ASSERT_TRUE(table.complete(*stolen_lease, &stolen, &error));
    EXPECT_FALSE(stolen);
    leases = table.list(&error);
    ASSERT_TRUE(leases);
    EXPECT_EQ((*leases)[0].state, LeaseState::Done);
}

TEST(Fleet, ReclaimOwnedByReturnsOnlyThatPidsLeases)
{
    // Owners must look *alive* to pidAlive() or the next claim would
    // simply steal their lease: pid 1 (init — kill() yields EPERM,
    // which counts as alive) plays the crashed-but-unreaped worker,
    // our own pid plays the healthy one.
    TempDir dir("reclaim");
    corpus::StoreError error;
    ASSERT_TRUE(LeaseTable::init(dir.str(), 4, 1, &error));
    LeaseTable table(dir.str());
    ASSERT_TRUE(table.claim(1, "worker.a", 0, 0, &error));
    ASSERT_TRUE(table.claim(1, "worker.a", 0, 0, &error));
    ASSERT_TRUE(table.claim(::getpid(), "worker.b", 0, 0, &error));

    std::optional<size_t> reclaimed =
        table.reclaimOwnedBy(1, &error);
    ASSERT_TRUE(reclaimed) << error.message;
    EXPECT_EQ(*reclaimed, 2u);
    std::optional<std::vector<Lease>> leases = table.list(&error);
    ASSERT_TRUE(leases);
    EXPECT_EQ((*leases)[0].state, LeaseState::Available);
    EXPECT_EQ((*leases)[1].state, LeaseState::Available);
    EXPECT_EQ((*leases)[2].state, LeaseState::Claimed);
    // Epochs survive the reclaim, so the old owner stays fenced.
    EXPECT_EQ((*leases)[0].epoch, 1u);
}

TEST(Fleet, LeaseGeometryTilesChunksAndFinishesOnSingleChunks)
{
    for (uint64_t chunks : {0u, 1u, 5u, 6u, 17u, 48u, 120u}) {
        for (uint64_t granule : {0u, 1u, 2u, 3u, 10u}) {
            std::vector<std::pair<uint64_t, uint64_t>> ranges =
                leaseRanges(chunks, granule);
            uint64_t next = 0;
            for (const auto &[begin, end] : ranges) {
                EXPECT_EQ(begin, next) << chunks << "/" << granule;
                EXPECT_GT(end, begin) << chunks << "/" << granule;
                EXPECT_LE(end - begin, std::max<uint64_t>(granule, 1));
                next = end;
            }
            EXPECT_EQ(next, chunks) << chunks << "/" << granule;
        }
    }
    // 48 chunks in granules of 3 (auto geometry for 4 workers): the
    // last quarter of the 16 coarse leases becomes 12 single chunks.
    std::vector<std::pair<uint64_t, uint64_t>> ranges = leaseRanges(48, 3);
    ASSERT_EQ(ranges.size(), 24u);
    EXPECT_EQ(ranges[11], std::make_pair(uint64_t(33), uint64_t(36)));
    EXPECT_EQ(ranges[12], std::make_pair(uint64_t(36), uint64_t(37)));
    EXPECT_EQ(ranges[23], std::make_pair(uint64_t(47), uint64_t(48)));
}

TEST(Fleet, LeaseTableReinitKeepsItsBoundaries)
{
    TempDir dir("reinit");
    corpus::StoreError error;
    ASSERT_TRUE(LeaseTable::init(dir.str(), 48, 3, &error))
        << error.message;
    LeaseTable table(dir.str());
    auto boundaries = [&] {
        std::vector<std::pair<uint64_t, uint64_t>> out;
        std::optional<std::vector<Lease>> leases = table.list(&error);
        EXPECT_TRUE(leases) << error.message;
        if (leases)
            for (const Lease &lease : *leases)
                out.emplace_back(lease.beginChunk, lease.endChunk);
        return out;
    };
    EXPECT_EQ(boundaries(), leaseRanges(48, 3));

    // A claimed lease and its epoch survive a resume's re-init.
    ASSERT_TRUE(table.claim(::getpid(), "worker.0", 0, 0, &error));
    ASSERT_TRUE(LeaseTable::init(dir.str(), 48, 3, &error));
    EXPECT_EQ(boundaries(), leaseRanges(48, 3));
    EXPECT_EQ(table.list(&error)->front().epoch, 1u);

    // An init cut short gets exactly its missing suffix.
    for (uint64_t index = 20; index < 24; ++index)
        fs::remove(leasePath(dir.str(), index));
    ASSERT_TRUE(LeaseTable::init(dir.str(), 48, 3, &error))
        << error.message;
    EXPECT_EQ(boundaries(), leaseRanges(48, 3));

    // A whole table keeps its recorded boundaries under any geometry.
    ASSERT_TRUE(LeaseTable::init(dir.str(), 48, 4, &error));
    EXPECT_EQ(boundaries(), leaseRanges(48, 3));
}

//===------------------------------------------------------------------===//
// Metrics dump transport
//===------------------------------------------------------------------===//

TEST(Fleet, RegistryDumpRoundTripsExactly)
{
    support::MetricsRegistry source;
    source.counter("campaign.seeds_done").add(42);
    source.counter("corpus.records").add(7);
    source.histogram("campaign.stage_us", "compile").observe(100);
    source.histogram("campaign.stage_us", "compile").observe(3000);

    std::string dump = encodeRegistryDump(source.counters(),
                                          source.histograms());
    support::MetricsRegistry target;
    ASSERT_TRUE(absorbRegistryDump(dump, target));
    // Absorbing a second worker's identical dump doubles everything.
    ASSERT_TRUE(absorbRegistryDump(dump, target));
    EXPECT_EQ(target.counterValue("campaign.seeds_done"), 84u);
    EXPECT_EQ(target.counterValue("corpus.records"), 14u);
    EXPECT_EQ(
        target.histogram("campaign.stage_us", "compile").count(), 4u);
    EXPECT_EQ(target.histogram("campaign.stage_us", "compile").sum(),
              6200u);

    EXPECT_FALSE(absorbRegistryDump("{\"counters\":[]}", target));
}

//===------------------------------------------------------------------===//
// Fleet end-to-end byte-identity
//===------------------------------------------------------------------===//

TEST(Fleet, MergedOutputMatchesSingleProcessAcrossWorkerCounts)
{
    TempDir ref("ref");
    std::string reference_summary, reference_report;
    runReference(ref.str(), reference_summary, reference_report);
    ASSERT_FALSE(reference_summary.empty());

    for (unsigned workers : {1u, 2u, 4u}) {
        TempDir dir("fleet");
        FleetOptions options;
        options.workers = workers;
        options.leaseChunks = 1;
        options.workerCheckpointEveryChunks = 1;
        corpus::StoreError error;
        FleetCoordinator coordinator(dir.str(), fleetPlan(), options);
        std::optional<FleetResult> result =
            coordinator.run(&error);
        ASSERT_TRUE(result) << error.message;
        EXPECT_EQ(result->workersSpawned, workers);
        EXPECT_EQ(result->workersCrashed, 0u);
        EXPECT_TRUE(result->merged.completed);
        EXPECT_EQ(corpus::summaryText(result->merged),
                  reference_summary)
            << "workers=" << workers;
        EXPECT_EQ(renderMergedReport(result->mergedStoreDir),
                  reference_report)
            << "workers=" << workers;
    }
}

TEST(Fleet, AutoGeometryMatchesSingleProcess)
{
    // 32 chunks. Auto geometry aims at 4 coarse leases per worker and
    // cuts the last quarter of them into single chunks: 4 workers get
    // 12 two-chunk leases and 8 single ones.
    corpus::CampaignPlan plan = fleetPlan(64, 2);
    TempDir ref("ref");
    std::string reference_summary, reference_report;
    runReference(ref.str(), reference_summary, reference_report, plan);

    struct Case {
        unsigned workers;
        uint64_t leaseChunks;
        uint64_t leases;
    };
    for (Case c : {Case{1, 8, 11}, Case{2, 4, 14}, Case{4, 2, 20}}) {
        TempDir dir("auto");
        FleetOptions options;
        options.workers = c.workers;
        corpus::StoreError error;
        FleetCoordinator coordinator(dir.str(), plan, options);
        std::optional<FleetResult> result = coordinator.run(&error);
        ASSERT_TRUE(result) << error.message;
        EXPECT_EQ(coordinator.config().leaseChunks, c.leaseChunks);
        EXPECT_EQ(result->leases, c.leases);
        EXPECT_EQ(corpus::summaryText(result->merged), reference_summary)
            << "workers=" << c.workers;
        EXPECT_EQ(renderMergedReport(result->mergedStoreDir),
                  reference_report)
            << "workers=" << c.workers;
    }
}

TEST(Fleet, IdleWorkersAreNudgedInsteadOfPolled)
{
    // With the poll backstop at 30 s, only the nudge can end the idle
    // waits: 4 workers share 6 leases, so some go idle at once.
    constexpr uint64_t kBackstopMs = 30000;
    TempDir dir("nudge");
    support::MetricsRegistry registry;
    FleetOptions options;
    options.workers = 4;
    options.pollMs = kBackstopMs;
    options.metrics = &registry;
    corpus::StoreError error;
    FleetCoordinator coordinator(dir.str(), fleetPlan(), options);
    auto start = std::chrono::steady_clock::now();
    std::optional<FleetResult> result = coordinator.run(&error);
    uint64_t wall_us = uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    ASSERT_TRUE(result) << error.message;
    EXPECT_LT(wall_us, kBackstopMs * 1000 / 5);

    // The phase timings are recorded once each, disjoint, within the
    // run, and exposed on /metrics.
    uint64_t phases_us = 0;
    std::map<std::string, support::MetricsRegistry::HistogramSnapshot>
        hists;
    for (auto &[key, snapshot] : registry.histograms())
        hists.emplace(key, snapshot);
    for (const char *phase : {"supervise", "drain", "merge"}) {
        auto it = hists.find(std::string("fleet.phase_us{") + phase + "}");
        ASSERT_NE(it, hists.end()) << phase;
        EXPECT_EQ(it->second.count, 1u) << phase;
        phases_us += it->second.sum;
    }
    EXPECT_LE(phases_us, wall_us);
    EXPECT_NE(registry.expose().find("fleet_phase_us"), std::string::npos);
}

TEST(Fleet, CrashedWorkerIsReclaimedAndMergeIsUnchanged)
{
    TempDir ref("ref");
    std::string reference_summary, reference_report;
    runReference(ref.str(), reference_summary, reference_report);

    // Crash the first worker one chunk into its first lease — the
    // worst case: a claimed lease with durable-but-incomplete store
    // state. The lease must return to the pool, a fresh-store
    // replacement must finish it, and the merge must not change.
    for (uint64_t crash_after : {1u, 2u}) {
        TempDir dir("crash");
        FleetOptions options;
        options.workers = 2;
        options.leaseChunks = 2;
        options.workerCheckpointEveryChunks = 1;
        options.crashFirstWorkerAfterChunks = crash_after;
        corpus::StoreError error;
        FleetCoordinator coordinator(dir.str(), fleetPlan(), options);
        std::optional<FleetResult> result =
            coordinator.run(&error);
        ASSERT_TRUE(result) << error.message;
        EXPECT_EQ(result->workersCrashed, 1u);
        EXPECT_GE(result->leasesReclaimed, 1u);
        EXPECT_EQ(result->workersSpawned, 3u); // 2 + 1 respawn
        EXPECT_EQ(corpus::summaryText(result->merged),
                  reference_summary)
            << "crash_after=" << crash_after;
        EXPECT_EQ(renderMergedReport(result->mergedStoreDir),
                  reference_report)
            << "crash_after=" << crash_after;
    }
}

TEST(Fleet, FleetDirPinsItsPlan)
{
    TempDir dir("pin");
    FleetOptions options;
    options.workers = 1;
    corpus::StoreError error;
    {
        FleetCoordinator coordinator(dir.str(), fleetPlan(), options);
        ASSERT_TRUE(coordinator.run(&error)) << error.message;
    }
    corpus::CampaignPlan other = fleetPlan();
    other.streamSeed += 1;
    FleetCoordinator mismatched(dir.str(), other, options);
    EXPECT_FALSE(mismatched.run(&error));
    EXPECT_EQ(error.status, corpus::StoreStatus::PlanMismatch);
}

TEST(Fleet, MergeRefusesAnIncompleteFleet)
{
    TempDir dir("incomplete");
    corpus::StoreError error;
    FleetConfig config;
    config.plan = fleetPlan();
    config.leaseChunks = 3;
    ASSERT_TRUE(writeFleetConfig(dir.str(), config, &error));
    ASSERT_TRUE(LeaseTable::init(dir.str(), config.numChunks(),
                                 config.leaseChunks, &error));
    EXPECT_FALSE(mergeFleet(dir.str(), &error));
    EXPECT_EQ(error.status, corpus::StoreStatus::IoError);
    EXPECT_NE(error.message.find("lease 0"), std::string::npos);
}

} // namespace
} // namespace dce::fleet
