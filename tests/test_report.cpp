/** @file Tests for the report subsystem (DESIGN.md §12): structured
 * event log determinism, JSON escaping shared with the tracer,
 * Prometheus exposition stability, metrics snapshots, provenance
 * dossiers, the campaign report generator's kill/resume byte-identity,
 * and the stall watchdog's single-fire semantics. */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "corpus/json.hpp"
#include "corpus/store.hpp"
#include "report/dossier.hpp"
#include "report/event_log.hpp"
#include "report/report.hpp"
#include "report/snapshot.hpp"
#include "report/watchdog.hpp"
#include "support/json.hpp"

namespace fs = std::filesystem;

namespace dce::report {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;
using core::BuildSpec;

BuildSpec
alphaO3()
{
    return {CompilerId::Alpha, OptLevel::O3, SIZE_MAX};
}

BuildSpec
betaO3()
{
    return {CompilerId::Beta, OptLevel::O3, SIZE_MAX};
}

/** Fresh scratch directory, removed on destruction. */
class TempDir {
  public:
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("dce_report_" + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

corpus::CampaignPlan
smallPlan()
{
    corpus::CampaignPlan plan;
    plan.count = 18;
    plan.chunkSize = 3;
    plan.randomSeeds = true;
    plan.streamSeed = 2024;
    plan.builds = {alphaO3(), betaO3()};
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

//===------------------------------------------------------------------===//
// Event log
//===------------------------------------------------------------------===//

TEST(ReportEventLog, SerializesTypedEventsInKeyOrder)
{
    support::MetricsRegistry registry;
    EventLog log(&registry);

    // Emit out of key order, from one thread: serialization must sort.
    support::Event late("chunk_committed",
                        {support::kPhaseChunk, 2,
                         support::kChunkCommitMinor});
    late.num("chunk", 2);
    log.emit(std::move(late));
    support::Event start("campaign_started",
                         {support::kPhaseCampaign, 0, 0});
    start.num("seeds", 6).str("builds", "alpha-O3,beta-O3");
    log.emit(std::move(start));
    support::Event find("finding_discovered",
                        {support::kPhaseChunk, 2, 1});
    find.num("marker", 7).str("fingerprint", "prog:x|markers:7");
    log.emit(std::move(find));

    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(registry.counterValue("report.events"), 3u);

    std::string jsonl = log.toJsonl();
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < jsonl.size()) {
        size_t end = jsonl.find('\n', begin);
        ASSERT_NE(end, std::string::npos);
        lines.push_back(jsonl.substr(begin, end - begin));
        begin = end + 1;
    }
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"event\":\"campaign_started\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"event\":\"finding_discovered\""),
              std::string::npos);
    EXPECT_NE(lines[2].find("\"event\":\"chunk_committed\""),
              std::string::npos);

    // Every line parses with the corpus JSON parser.
    for (const std::string &line : lines) {
        std::string error;
        EXPECT_TRUE(corpus::JsonValue::parse(line, &error)) << error;
    }
}

TEST(ReportEventLog, WriteIsAtomicAndRepeatable)
{
    TempDir dir("evlog");
    fs::create_directories(dir.str());
    std::string path = dir.str() + "/events.jsonl";

    support::MetricsRegistry registry;
    EventLog log(&registry);
    support::Event event("campaign_started",
                         {support::kPhaseCampaign, 0, 0});
    event.num("seeds", 1);
    log.emit(std::move(event));

    ASSERT_TRUE(log.write(path));
    std::string first = readFile(path);
    ASSERT_TRUE(log.write(path)); // full rewrite, same bytes
    EXPECT_EQ(readFile(path), first);
    EXPECT_EQ(first, log.toJsonl());
}

TEST(ReportEventLog, ByteIdenticalAcrossThreadCounts)
{
    std::string serial_log;
    {
        TempDir dir("serial");
        corpus::StoreError error;
        auto store = corpus::CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        support::MetricsRegistry registry;
        EventLog log(&registry);
        corpus::CheckpointRunOptions options;
        options.threads = 1;
        options.checkpointEveryChunks = 2;
        options.metrics = &registry;
        options.events = &log;
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_TRUE(result->completed);
        serial_log = log.toJsonl();
    }
    ASSERT_FALSE(serial_log.empty());

    for (unsigned threads : {4u, 8u}) {
        TempDir dir("mt");
        corpus::StoreError error;
        auto store = corpus::CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        support::MetricsRegistry registry;
        EventLog log(&registry);
        corpus::CheckpointRunOptions options;
        options.threads = threads;
        options.checkpointEveryChunks = 2;
        options.metrics = &registry;
        options.events = &log;
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_TRUE(result->completed);
        EXPECT_EQ(log.toJsonl(), serial_log)
            << "event log diverged at " << threads << " threads";
    }
}

//===------------------------------------------------------------------===//
// Shared JSON escaping (support/json, used by tracer + events)
//===------------------------------------------------------------------===//

TEST(ReportEscaping, ControlTabNewlineAndNonAsciiSurvive)
{
    const std::string nasty =
        "line1\nline2\ttab \"quoted\" back\\slash\r\b\f\x01\x1f "
        "caf\xc3\xa9 \xe6\xbc\xa2";
    std::string json = "{\"v\":\"" + support::jsonEscaped(nasty) +
                       "\"}";
    std::string error;
    std::optional<corpus::JsonValue> doc =
        corpus::JsonValue::parse(json, &error);
    ASSERT_TRUE(doc) << error << " in " << json;
    EXPECT_EQ(doc->getString("v"), nasty);

    // The same escaper backs trace span serialization and event
    // fields: a field with every escape class round-trips too.
    support::Event event("probe", {support::kPhaseOps, 0, 0});
    event.str("payload", nasty);
    std::string line;
    event.appendJson(line);
    doc = corpus::JsonValue::parse(line, &error);
    ASSERT_TRUE(doc) << error << " in " << line;
    EXPECT_EQ(doc->getString("payload"), nasty);
}

//===------------------------------------------------------------------===//
// Prometheus exposition
//===------------------------------------------------------------------===//

TEST(ReportExposition, ExposeIsInsertionOrderIndependent)
{
    support::MetricsRegistry a;
    a.counter("campaign.seeds").add(18);
    a.counter("campaign.invalid", "trap").add(2);
    a.counter("campaign.invalid", "timeout").add(1);
    a.histogram("corpus.checkpoint_us").observe(100);
    a.histogram("campaign.stage_us", "generate").observe(7);

    support::MetricsRegistry b;
    b.histogram("campaign.stage_us", "generate").observe(7);
    b.counter("campaign.invalid", "timeout").add(1);
    b.histogram("corpus.checkpoint_us").observe(100);
    b.counter("campaign.invalid", "trap").add(2);
    b.counter("campaign.seeds").add(18);

    EXPECT_EQ(a.expose(), b.expose());

    std::string text = a.expose();
    EXPECT_NE(text.find("# TYPE campaign_seeds counter\n"
                        "campaign_seeds 18\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("campaign_invalid{label=\"timeout\"} 1\n"
                  "campaign_invalid{label=\"trap\"} 2\n"),
        std::string::npos);
    // One TYPE line per metric name, not per series.
    size_t first = text.find("# TYPE campaign_invalid");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("# TYPE campaign_invalid", first + 1),
              std::string::npos);
}

TEST(ReportExposition, HostileLabelValuesAreEscapedPerSpec)
{
    // Exposition-format conformance (text format 0.0.4): label values
    // must escape backslash, double-quote, and newline — and nothing
    // else — as \\, \", and \n. A scraper fed an unescaped quote or a
    // raw newline tears the whole scrape, so this is a regression
    // fence for /metrics.
    support::MetricsRegistry registry;
    registry.counter("serve.responses", "a\\b\"c\nd").add(1);
    registry.histogram("campaign.stage_us", "tab\there").observe(4);

    std::string text = registry.expose();
    EXPECT_NE(
        text.find("serve_responses{label=\"a\\\\b\\\"c\\nd\"} 1\n"),
        std::string::npos);
    // No raw newline may survive inside a label value: a torn line
    // would start mid-value, so every line must open like a comment
    // or a metric name.
    size_t begin = 0;
    while (begin < text.size()) {
        size_t end = text.find('\n', begin);
        ASSERT_NE(end, std::string::npos) << "unterminated line";
        std::string line = text.substr(begin, end - begin);
        if (!line.empty()) {
            char first = line[0];
            EXPECT_TRUE(first == '#' || first == '_' ||
                        (first >= 'a' && first <= 'z') ||
                        (first >= 'A' && first <= 'Z'))
                << "torn exposition line: " << line;
        }
        begin = end + 1;
    }
    // Characters with no escape rule (tab) pass through verbatim.
    EXPECT_NE(
        text.find("campaign_stage_us_sum{label=\"tab\there\"} 4\n"),
        std::string::npos);
}

TEST(ReportExposition, HistogramBucketsAreCumulative)
{
    support::MetricsRegistry registry;
    support::Histogram &h = registry.histogram("reduce.tests");
    h.observe(0); // bucket 0 (le 0)
    h.observe(1); // bucket 1 (le 1)
    h.observe(2); // bucket 2 (le 3)
    h.observe(3); // bucket 2 (le 3)

    std::string text = registry.expose();
    EXPECT_NE(text.find("reduce_tests_bucket{le=\"0\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("reduce_tests_bucket{le=\"1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("reduce_tests_bucket{le=\"3\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("reduce_tests_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("reduce_tests_sum 6\n"), std::string::npos);
    EXPECT_NE(text.find("reduce_tests_count 4\n"), std::string::npos);
}

//===------------------------------------------------------------------===//
// Snapshots
//===------------------------------------------------------------------===//

TEST(ReportSnapshot, AppendsParseableRegistrySamples)
{
    TempDir dir("snap");
    fs::create_directories(dir.str());
    std::string path = dir.str() + "/run.metrics.jsonl";

    support::MetricsRegistry registry;
    registry.counter("campaign.seeds").add(5);
    registry.histogram("campaign.stage_us", "generate").observe(11);

    SnapshotWriter writer({.path = path, .registry = &registry});
    ASSERT_TRUE(writer.snapshot());
    registry.counter("campaign.seeds").add(3);
    ASSERT_TRUE(writer.snapshot());
    EXPECT_EQ(writer.snapshotsTaken(), 2u);

    std::string text = readFile(path);
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < text.size()) {
        size_t end = text.find('\n', begin);
        ASSERT_NE(end, std::string::npos);
        lines.push_back(text.substr(begin, end - begin));
        begin = end + 1;
    }
    ASSERT_EQ(lines.size(), 2u);
    std::string error;
    std::optional<corpus::JsonValue> first =
        corpus::JsonValue::parse(lines[0], &error);
    ASSERT_TRUE(first) << error;
    EXPECT_EQ(first->getU64("seq"), 0u);
    EXPECT_EQ(first->get("counters")->getU64("campaign.seeds"), 5u);
    std::optional<corpus::JsonValue> second =
        corpus::JsonValue::parse(lines[1], &error);
    ASSERT_TRUE(second) << error;
    EXPECT_EQ(second->getU64("seq"), 1u);
    EXPECT_EQ(second->get("counters")->getU64("campaign.seeds"), 8u);
}

//===------------------------------------------------------------------===//
// Watchdog
//===------------------------------------------------------------------===//

TEST(ReportWatchdog, FiresOnceThenRearmsOnProgress)
{
    uint64_t fake_now = 0;
    std::vector<std::string> dumps;
    support::MetricsRegistry registry;
    EventLog log(&registry);

    WatchdogOptions options;
    options.stallThresholdUs = 1000;
    options.events = &log;
    options.registry = &registry;
    options.onStall = [&](const std::string &dump) {
        dumps.push_back(dump);
    };
    options.clock = [&] { return fake_now; };
    Watchdog watchdog(options);

    unsigned inner_calls = 0;
    core::CampaignObserver observer = watchdog.wrap(
        [&](const core::CampaignProgress &) { ++inner_calls; });

    core::CampaignProgress progress;
    progress.seedsDone = 3;
    progress.seedsTotal = 18;
    observer(progress);
    EXPECT_EQ(inner_calls, 1u);

    // Under the threshold: quiet.
    fake_now = 500;
    EXPECT_FALSE(watchdog.poll());
    EXPECT_EQ(watchdog.stallsFired(), 0u);

    // Over the threshold: exactly one fire, however often polled.
    fake_now = 2000;
    EXPECT_TRUE(watchdog.poll());
    EXPECT_FALSE(watchdog.poll());
    EXPECT_FALSE(watchdog.poll());
    EXPECT_EQ(watchdog.stallsFired(), 1u);
    EXPECT_TRUE(watchdog.stalled());
    ASSERT_EQ(dumps.size(), 1u);
    EXPECT_NE(dumps[0].find("no progress"), std::string::npos);
    EXPECT_NE(dumps[0].find("3/18"), std::string::npos);
    EXPECT_EQ(registry.counterValue("report.stalls"), 1u);

    // The stall event is segregated into the ops phase.
    std::vector<support::Event> events = log.sorted();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type(), "watchdog_stall");
    EXPECT_EQ(events[0].key().phase, support::kPhaseOps);
    EXPECT_EQ(events[0].getNum("seeds_done"), 3u);

    // Progress clears the latch — and logs the stalled→ready
    // transition as watchdog_recovered, bookending the stall.
    progress.seedsDone = 4;
    observer(progress);
    EXPECT_FALSE(watchdog.stalled());
    events = log.sorted();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].type(), "watchdog_recovered");
    EXPECT_EQ(events[1].key().phase, support::kPhaseOps);
    EXPECT_EQ(events[1].getNum("stall"), 1u);
    EXPECT_EQ(events[1].getNum("seeds_done"), 4u);

    EXPECT_FALSE(watchdog.poll()); // just progressed at t=2000
    fake_now = 4000;
    EXPECT_TRUE(watchdog.poll());
    EXPECT_EQ(watchdog.stallsFired(), 2u);
    EXPECT_EQ(log.size(), 3u); // stall, recovered, stall
}

//===------------------------------------------------------------------===//
// Dossiers
//===------------------------------------------------------------------===//

TEST(ReportDossier, AssemblesFullLineage)
{
    TempDir dir("dossier");
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;

    support::MetricsRegistry registry;
    EventLog log(&registry);
    corpus::CheckpointRunOptions options;
    options.threads = 2;
    options.metrics = &registry;
    options.events = &log;
    auto result = corpus::runCheckpointed(*store, smallPlan(),
                                          options, &error);
    ASSERT_TRUE(result) << error.message;
    ASSERT_FALSE(result->findings.empty());

    // Triage through the store's verdict cache, with events on, so
    // the dossier can pick up both the verdict and the trajectory.
    corpus::StoreVerdictCache cache(*store);
    core::TriageOptions triage;
    triage.maxTests = 120;
    triage.metrics = &registry;
    triage.verdictCache = &cache;
    triage.events = &log;
    core::TriageSummary summary =
        core::triageFindings(result->findings, triage);
    ASSERT_FALSE(summary.reports.empty());

    // The fingerprint of finding 0, as the report generator forms it.
    std::optional<CampaignReportData> data =
        collectReportData(*store, &error);
    ASSERT_TRUE(data) << error.message;
    ASSERT_FALSE(data->fingerprints.empty());
    const std::string &fingerprint = data->fingerprints[0];
    ASSERT_FALSE(fingerprint.empty());

    std::optional<Dossier> dossier =
        buildDossier(*store, &log, fingerprint, &error);
    ASSERT_TRUE(dossier) << error.message;

    const core::Finding &finding = result->findings[0];
    EXPECT_EQ(dossier->seed, finding.seed);
    ASSERT_EQ(dossier->markers.size(), 1u);
    EXPECT_EQ(dossier->markers[0], finding.marker);
    EXPECT_EQ(dossier->missedBy, finding.missedBy.name());
    EXPECT_EQ(dossier->reference, finding.reference.name());
    EXPECT_FALSE(dossier->source.empty());
    ASSERT_EQ(dossier->builds.size(), 2u);
    EXPECT_EQ(dossier->builds[0].name, alphaO3().name());
    EXPECT_TRUE(dossier->builds[0].missesMarker);
    EXPECT_FALSE(dossier->builds[1].missesMarker);
    // The reference eliminated it under collectRemarks, so the killer
    // pass is attributed.
    EXPECT_FALSE(dossier->builds[1].killerPass.empty());
    ASSERT_TRUE(dossier->verdict.has_value());
    EXPECT_FALSE(dossier->verdict->signature.empty());
    ASSERT_TRUE(dossier->reduction.has_value());
    EXPECT_GT(dossier->reduction->tests, 0u);

    // Both renderings carry the lineage and stay parseable/readable.
    std::string json = dossierJson(*dossier);
    std::string parse_error;
    std::optional<corpus::JsonValue> doc =
        corpus::JsonValue::parse(json, &parse_error);
    ASSERT_TRUE(doc) << parse_error;
    EXPECT_EQ(doc->getString("fingerprint"), fingerprint);
    EXPECT_EQ(doc->getU64("seed"), finding.seed);
    std::string markdown = dossierMarkdown(*dossier);
    EXPECT_NE(markdown.find(fingerprint), std::string::npos);
    EXPECT_NE(markdown.find("killer pass"), std::string::npos);

    EXPECT_FALSE(buildDossier(*store, nullptr, "not-a-fingerprint",
                              &error));
    EXPECT_EQ(error.status, corpus::StoreStatus::NotFound);
}

//===------------------------------------------------------------------===//
// Report generator
//===------------------------------------------------------------------===//

TEST(ReportGenerator, ReportFromStoreMatchesAfterKillResume)
{
    auto run_and_render = [](const std::string &store_dir,
                             const std::string &report_dir,
                             uint64_t halt_after) {
        corpus::StoreError error;
        {
            auto store =
                corpus::CorpusStore::open(store_dir, &error);
            ASSERT_TRUE(store) << error.message;
            corpus::CheckpointRunOptions options;
            options.threads = 2;
            options.checkpointEveryChunks = 2;
            options.haltAfterChunks = halt_after;
            auto result = corpus::runCheckpointed(
                *store, smallPlan(), options, &error);
            ASSERT_TRUE(result) << error.message;
            if (halt_after) {
                ASSERT_FALSE(result->completed);
                // Second leg: resume to completion, like a restart
                // after SIGKILL.
                corpus::CheckpointRunOptions resume;
                resume.threads = 2;
                resume.checkpointEveryChunks = 2;
                auto resumed = corpus::runCheckpointed(
                    *store, smallPlan(), resume, &error);
                ASSERT_TRUE(resumed) << error.message;
                ASSERT_TRUE(resumed->completed);
            }
        }
        auto store = corpus::CorpusStore::open(store_dir, &error);
        ASSERT_TRUE(store) << error.message;
        CampaignReportOptions options;
        options.html = true;
        ASSERT_TRUE(writeCampaignReport(*store, report_dir, options,
                                        &error))
            << error.message;
    };

    TempDir full_store("full");
    TempDir full_report("fullrep");
    run_and_render(full_store.str(), full_report.str(), 0);

    TempDir killed_store("killed");
    TempDir killed_report("killedrep");
    run_and_render(killed_store.str(), killed_report.str(), 2);

    // Same files, same bytes — the report derives from checkpointed
    // state only, which the resume contract makes bit-identical.
    std::vector<std::string> names;
    for (const auto &entry :
         fs::directory_iterator(full_report.str()))
        names.push_back(entry.path().filename().string());
    ASSERT_FALSE(names.empty());
    EXPECT_NE(std::find(names.begin(), names.end(), "report.md"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "report.html"),
              names.end());
    for (const std::string &name : names) {
        std::string full = readFile(full_report.str() + "/" + name);
        std::string killed =
            readFile(killed_report.str() + "/" + name);
        EXPECT_EQ(full, killed) << "report file " << name
                                << " diverged after kill/resume";
    }
    size_t killed_count = std::distance(
        fs::directory_iterator(killed_report.str()),
        fs::directory_iterator{});
    EXPECT_EQ(names.size(), killed_count);

    // Sanity on the content: the report names the builds and links
    // the findings index to dossier files that exist.
    std::string markdown =
        readFile(full_report.str() + "/report.md");
    EXPECT_NE(markdown.find("# Campaign report"), std::string::npos);
    EXPECT_NE(markdown.find("**complete**"), std::string::npos);
    EXPECT_NE(markdown.find(alphaO3().name()), std::string::npos);
    EXPECT_NE(markdown.find(betaO3().name()), std::string::npos);
    if (markdown.find("finding-0.md") != std::string::npos) {
        EXPECT_TRUE(
            fs::exists(full_report.str() + "/finding-0.md"));
        EXPECT_TRUE(
            fs::exists(full_report.str() + "/finding-0.json"));
    }
}

TEST(ReportGenerator, IncompleteStoreRendersPartialReport)
{
    TempDir store_dir("partial");
    TempDir report_dir("partialrep");
    corpus::StoreError error;
    {
        auto store =
            corpus::CorpusStore::open(store_dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        corpus::CheckpointRunOptions options;
        options.checkpointEveryChunks = 2;
        options.haltAfterChunks = 2; // killed mid-run, never resumed
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_FALSE(result->completed);
    }
    auto store = corpus::CorpusStore::open(store_dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    ASSERT_TRUE(writeCampaignReport(*store, report_dir.str(), {},
                                    &error))
        << error.message;
    std::string markdown =
        readFile(report_dir.str() + "/report.md");
    EXPECT_NE(markdown.find("**incomplete**"), std::string::npos);

    // A store with no checkpoint at all is a classified error.
    TempDir empty("empty");
    auto fresh = corpus::CorpusStore::open(empty.str(), &error);
    ASSERT_TRUE(fresh) << error.message;
    TempDir out("emptyrep");
    EXPECT_FALSE(
        writeCampaignReport(*fresh, out.str(), {}, &error));
    EXPECT_EQ(error.status, corpus::StoreStatus::NoCheckpoint);
}

//===------------------------------------------------------------------===//
// Dossiers written by the report
//===------------------------------------------------------------------===//

/** Run smallPlan() into @p dir: to completion, or killed after
 * @p halt_after chunks and never resumed. */
void
runSmallPlan(const std::string &dir, uint64_t halt_after = 0)
{
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(dir, &error);
    ASSERT_TRUE(store) << error.message;
    corpus::CheckpointRunOptions options;
    options.checkpointEveryChunks = 2;
    options.haltAfterChunks = halt_after;
    auto result =
        corpus::runCheckpointed(*store, smallPlan(), options, &error);
    ASSERT_TRUE(result) << error.message;
    ASSERT_EQ(result->completed, halt_after == 0);
}

/**
 * Write the report of the store at @p store_dir, then check every
 * dossier it wrote against a standalone buildDossier on a freshly
 * opened store. Returns the number of dossiers compared.
 */
size_t
expectReportDossiersMatchStandalone(const std::string &store_dir)
{
    TempDir report_dir("dossiers");
    corpus::StoreError error;
    std::vector<std::string> fingerprints;
    {
        auto store = corpus::CorpusStore::open(store_dir, &error);
        EXPECT_TRUE(store) << error.message;
        if (!store)
            return 0;
        EXPECT_TRUE(writeCampaignReport(*store, report_dir.str(), {},
                                        &error))
            << error.message;
        std::optional<CampaignReportData> data =
            collectReportData(*store, &error);
        EXPECT_TRUE(data) << error.message;
        if (data)
            fingerprints = data->fingerprints;
    }
    auto fresh = corpus::CorpusStore::open(store_dir, &error);
    EXPECT_TRUE(fresh) << error.message;
    if (!fresh)
        return 0;
    size_t compared = 0;
    for (size_t i = 0; i < fingerprints.size(); ++i) {
        std::string name = report_dir.str() + "/finding-" +
                           std::to_string(i);
        if (fingerprints[i].empty()) {
            EXPECT_FALSE(fs::exists(name + ".md")) << name;
            continue;
        }
        std::optional<Dossier> dossier =
            buildDossier(*fresh, nullptr, fingerprints[i], &error);
        EXPECT_TRUE(dossier) << error.message;
        if (!dossier)
            continue;
        EXPECT_EQ(readFile(name + ".md"), dossierMarkdown(*dossier))
            << name;
        EXPECT_EQ(readFile(name + ".json"), dossierJson(*dossier))
            << name;
        ++compared;
    }
    return compared;
}

TEST(ReportDossiers, ReportDossiersEqualStandaloneDossiers)
{
    TempDir store_dir("standalone");
    runSmallPlan(store_dir.str());
    EXPECT_GT(expectReportDossiersMatchStandalone(store_dir.str()), 0u);
}

TEST(ReportDossiers, SharedProgramHashResolvesToLowestSlot)
{
    TempDir store_dir("shared");
    runSmallPlan(store_dir.str());

    // Give slot 0 the program of a later finding, in a chunk no
    // checkpoint names: the report leaves it out of every total, but
    // it is the lowest-slot record carrying that hash, so every
    // dossier for that program must describe it.
    corpus::StoreError error;
    uint64_t shared_slot = 0;
    std::string fingerprint;
    {
        auto store = corpus::CorpusStore::open(store_dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        std::optional<CampaignReportData> data =
            collectReportData(*store, &error);
        ASSERT_TRUE(data) << error.message;
        for (size_t i = 0; i < data->state.findings.size(); ++i) {
            if (data->state.findings[i].slot > 0) {
                shared_slot = data->state.findings[i].slot;
                fingerprint = data->fingerprints[i];
                break;
            }
        }
        ASSERT_GT(shared_slot, 0u) << "no finding past slot 0";
        std::vector<corpus::StoredRecord> records =
            store->loadRecords(&error);
        auto source = std::find_if(
            records.begin(), records.end(),
            [&](const corpus::StoredRecord &r) {
                return r.slot == shared_slot;
            });
        ASSERT_NE(source, records.end());
        core::ProgramRecord copy = source->record;
        copy.seed += 1000;
        store->putRecord(copy, 0, 999, source->programHash);
        ASSERT_TRUE(store->flush(&error)) << error.message;
    }

    EXPECT_GT(expectReportDossiersMatchStandalone(store_dir.str()), 0u);
    auto store = corpus::CorpusStore::open(store_dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    std::optional<Dossier> dossier =
        buildDossier(*store, nullptr, fingerprint, &error);
    ASSERT_TRUE(dossier) << error.message;
    EXPECT_EQ(dossier->slot, 0u);
    EXPECT_EQ(dossier->chunk, 999u);
}

TEST(ReportDossiers, KilledStoreDossiersSeeRecordsPastCheckpoint)
{
    TempDir store_dir("killedcp");
    // Checkpoints every 2 chunks; the third chunk's records land but
    // no checkpoint names them.
    runSmallPlan(store_dir.str(), 3);
    corpus::StoreError error;
    {
        auto store = corpus::CorpusStore::open(store_dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        std::optional<CampaignReportData> data =
            collectReportData(*store, &error);
        ASSERT_TRUE(data) << error.message;
        ASSERT_FALSE(data->complete);
        EXPECT_GT(data->dossiers.records.size(), data->storedRecords);
    }
    EXPECT_GT(expectReportDossiersMatchStandalone(store_dir.str()), 0u);
}

TEST(ReportDossiers, StoreWithoutCheckpointLabelsBuildsByPosition)
{
    TempDir store_dir("nocheckpoint");
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(store_dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    core::ProgramRecord record;
    record.seed = 7;
    record.markerCount = 2;
    record.valid = true;
    record.trueDead = {0, 1};
    record.alive = {{1}, {}};
    record.missed = {{1}, {}};
    store->putProgram("00000000000000aa", "int main() { return 0; }\n");
    store->putRecord(record, 0, 0, "00000000000000aa");
    ASSERT_FALSE(store->hasCheckpoint());

    std::optional<Dossier> dossier = buildDossier(
        *store, nullptr, "prog:00000000000000aa|markers:1|by:a|ref:b",
        &error);
    ASSERT_TRUE(dossier) << error.message;
    ASSERT_EQ(dossier->builds.size(), 2u);
    EXPECT_EQ(dossier->builds[0].name, "build0");
    EXPECT_EQ(dossier->builds[1].name, "build1");
    EXPECT_TRUE(dossier->builds[0].missesMarker);
    EXPECT_FALSE(dossier->builds[1].missesMarker);
    EXPECT_EQ(dossier->seed, 7u);
}

TEST(ReportDossiers, ReportLoadsEachRecordOnce)
{
    TempDir store_dir("loadonce");
    runSmallPlan(store_dir.str());
    TempDir report_dir("loadoncerep");
    support::MetricsRegistry registry;
    corpus::OpenOptions open;
    open.metrics = &registry;
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(store_dir.str(), &error, open);
    ASSERT_TRUE(store) << error.message;
    ASSERT_EQ(registry.counterValue("corpus.records_loaded"), 0u);
    ASSERT_TRUE(writeCampaignReport(*store, report_dir.str(), {}, &error))
        << error.message;
    // More than one dossier written, yet one record load in total.
    EXPECT_TRUE(fs::exists(report_dir.str() + "/finding-1.md"));
    EXPECT_EQ(registry.counterValue("corpus.records_loaded"),
              store->stats().records);
}

} // namespace
} // namespace dce::report
