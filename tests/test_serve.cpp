/** @file Tests for the live ops server (DESIGN.md §14): the embedded
 * HTTP transport's parsing/limits/concurrency/graceful-drain behavior
 * over real loopback sockets, and the OpsServer endpoints' contracts —
 * /metrics equals the registry exposition, /progress agrees with the
 * campaign.progress counters, /readyz follows the watchdog latch, and
 * /report serves byte-identical output to writeCampaignReport. */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "corpus/json.hpp"
#include "corpus/store.hpp"
#include "report/dossier.hpp"
#include "report/event_log.hpp"
#include "report/report.hpp"
#include "report/watchdog.hpp"
#include "serve/http.hpp"
#include "serve/ops_server.hpp"
#include "support/metrics.hpp"

namespace fs = std::filesystem;

namespace dce::serve {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;
using core::BuildSpec;

/** Fresh scratch directory, removed on destruction. */
class TempDir {
  public:
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("dce_serve_" + tag + "_" +
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
    plan.builds = {
        {CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
        {CompilerId::Beta, OptLevel::O3, SIZE_MAX},
    };
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

/** Send @p raw over a fresh loopback connection and return the whole
 * close-delimited response (status line + headers + body). */
std::string
rawRequest(uint16_t port, const std::string &raw)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    size_t sent = 0;
    while (sent < raw.size()) {
        ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break; // server may answer (and close) before we finish
        sent += size_t(n);
    }
    std::string response;
    char buffer[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n <= 0)
            break;
        response.append(buffer, size_t(n));
    }
    ::close(fd);
    return response;
}

std::string
httpGet(uint16_t port, const std::string &target)
{
    return rawRequest(port, "GET " + target +
                                " HTTP/1.1\r\nHost: l\r\n\r\n");
}

/** The body of a close-delimited response. */
std::string
bodyOf(const std::string &response)
{
    size_t split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string()
                                      : response.substr(split + 4);
}

int
statusOf(const std::string &response)
{
    // "HTTP/1.1 NNN ..."
    if (response.size() < 12)
        return -1;
    return std::atoi(response.c_str() + 9);
}

//===------------------------------------------------------------------===//
// HTTP transport
//===------------------------------------------------------------------===//

TEST(ServeHttp, ParsesAndRoutesRequests)
{
    support::MetricsRegistry registry;
    HttpServerOptions options;
    options.metrics = &registry;
    HttpServer server(
        [](const HttpRequest &request) {
            HttpResponse response;
            response.body = request.method + " " + request.path +
                            " q=" + request.query + " name=" +
                            request.queryParam("name").value_or("-");
            return response;
        },
        options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_NE(server.port(), 0);

    // Path and query reach the handler percent-decoded / split.
    std::string ok =
        httpGet(server.port(), "/echo%20path?name=a%2Fb&x=1");
    EXPECT_EQ(statusOf(ok), 200);
    EXPECT_EQ(bodyOf(ok), "GET /echo path q=name=a%2Fb&x=1 name=a/b");
    EXPECT_NE(ok.find("Content-Length: "), std::string::npos);
    EXPECT_NE(ok.find("Connection: close"), std::string::npos);

    // Non-GET methods get a precise 405 + Allow, not dispatched.
    std::string post = rawRequest(
        server.port(), "POST /echo HTTP/1.1\r\nHost: l\r\n\r\n");
    EXPECT_EQ(statusOf(post), 405);
    EXPECT_NE(post.find("Allow: GET"), std::string::npos);

    // A garbage request line is a 400, not a crash.
    std::string garbage =
        rawRequest(server.port(), "NONSENSE\r\n\r\n");
    EXPECT_EQ(statusOf(garbage), 400);

    // Malformed percent-escapes are rejected.
    std::string bad_escape = httpGet(server.port(), "/bad%2");
    EXPECT_EQ(statusOf(bad_escape), 400);

    EXPECT_EQ(server.requestsServed(), 4u);
    EXPECT_EQ(registry.counterValue("serve.requests"), 4u);
    EXPECT_EQ(registry.counterValue("serve.responses", "200"), 1u);
    EXPECT_EQ(registry.counterValue("serve.responses", "400"), 2u);
    EXPECT_EQ(registry.counterValue("serve.responses", "405"), 1u);
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ServeHttp, OversizedRequestsAreBounded)
{
    support::MetricsRegistry registry;
    HttpServerOptions options;
    options.metrics = &registry;
    options.maxRequestBytes = 256;
    HttpServer server(
        [](const HttpRequest &) {
            return HttpResponse::text(200, "ok");
        },
        options);
    ASSERT_TRUE(server.start());

    // The cap trips before the request line ends: 414.
    std::string long_line = "GET /" + std::string(300, 'a');
    EXPECT_EQ(statusOf(rawRequest(server.port(), long_line)), 414);

    // The cap trips after the request line, inside the headers: 400.
    std::string long_headers = "GET / HTTP/1.1\r\nX-Pad: " +
                               std::string(300, 'b') + "\r\n";
    EXPECT_EQ(statusOf(rawRequest(server.port(), long_headers)), 400);

    // A request under the cap still works.
    EXPECT_EQ(statusOf(httpGet(server.port(), "/")), 200);
}

TEST(ServeHttp, ConcurrentGetsFromManyThreads)
{
    std::atomic<uint64_t> handled{0};
    support::MetricsRegistry registry;
    HttpServerOptions options;
    options.metrics = &registry;
    options.handlerThreads = 4;
    HttpServer server(
        [&](const HttpRequest &request) {
            handled.fetch_add(1);
            return HttpResponse::text(200, "hello " + request.path);
        },
        options);
    ASSERT_TRUE(server.start());

    constexpr unsigned kClients = 8;
    constexpr unsigned kRequestsPerClient = 16;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (unsigned i = 0; i < kRequestsPerClient; ++i) {
                std::string path =
                    "/c" + std::to_string(c) + "/" + std::to_string(i);
                std::string response =
                    httpGet(server.port(), path);
                if (statusOf(response) != 200 ||
                    bodyOf(response) != "hello " + path)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(handled.load(), kClients * kRequestsPerClient);
    EXPECT_EQ(server.requestsServed(),
              kClients * kRequestsPerClient);
}

TEST(ServeHttp, GracefulShutdownAnswersInFlightRequests)
{
    std::atomic<bool> entered{false};
    HttpServer server([&](const HttpRequest &) {
        entered.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        return HttpResponse::text(200, "slow but served");
    });
    ASSERT_TRUE(server.start());

    std::string response;
    std::thread client([&] {
        response = httpGet(server.port(), "/slow");
    });
    // Wait until the handler is actually running, then stop: the
    // drain contract says the in-flight request still completes.
    while (!entered.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.stop();
    client.join();

    EXPECT_EQ(statusOf(response), 200);
    EXPECT_EQ(bodyOf(response), "slow but served");
    EXPECT_FALSE(server.running());
}

//===------------------------------------------------------------------===//
// Ops endpoints
//===------------------------------------------------------------------===//

TEST(ServeOps, MetricsEndpointExposesRegistryVerbatim)
{
    support::MetricsRegistry registry;
    registry.counter("campaign.invalid", "timeout").add(3);
    registry.histogram("campaign.stage_us", "compile").observe(100);

    OpsServerOptions options;
    options.metrics = &registry;
    OpsServer ops(options);

    HttpRequest request;
    request.path = "/metrics";
    HttpResponse response = ops.handle(request);
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.contentType, support::kPrometheusContentType);
    EXPECT_EQ(response.body, registry.expose());

    request.path = "/healthz";
    EXPECT_EQ(ops.handle(request).status, 200);
    request.path = "/nope";
    EXPECT_EQ(ops.handle(request).status, 404);
    // Remote shutdown is opt-in; the route does not exist otherwise.
    request.path = "/quitquitquit";
    EXPECT_EQ(ops.handle(request).status, 404);
    EXPECT_FALSE(ops.shutdownRequested());
    // Endpoints with no subsystem attached are 404s, not crashes.
    request.path = "/progress";
    EXPECT_EQ(ops.handle(request).status, 404);
    request.path = "/report";
    EXPECT_EQ(ops.handle(request).status, 404);
    request.path = "/events";
    EXPECT_EQ(ops.handle(request).status, 404);
}

TEST(ServeOps, QuitEndpointRequestsShutdownWhenEnabled)
{
    OpsServerOptions options;
    support::MetricsRegistry registry;
    options.metrics = &registry;
    options.allowRemoteShutdown = true;
    OpsServer ops(options);

    EXPECT_FALSE(ops.waitForShutdownRequest(1));
    HttpRequest request;
    request.path = "/quitquitquit";
    EXPECT_EQ(ops.handle(request).status, 200);
    EXPECT_TRUE(ops.shutdownRequested());
    EXPECT_TRUE(ops.waitForShutdownRequest(1));
}

TEST(ServeOps, ProgressAgreesWithMetricsMidRun)
{
    TempDir dir("progress");
    support::MetricsRegistry registry;
    corpus::OpenOptions open_options;
    open_options.metrics = &registry;
    corpus::StoreError error;
    auto store =
        corpus::CorpusStore::open(dir.str(), &error, open_options);
    ASSERT_TRUE(store) << error.message;

    // Halt mid-campaign: 4 of 6 chunks committed, 2 checkpoints — the
    // state a live scrape would see between checkpoints.
    corpus::CampaignStatusBoard board;
    corpus::CheckpointRunOptions run;
    run.metrics = &registry;
    run.status = &board;
    run.checkpointEveryChunks = 2;
    run.haltAfterChunks = 4;
    auto result =
        corpus::runCheckpointed(*store, smallPlan(), run, &error);
    ASSERT_TRUE(result) << error.message;
    ASSERT_FALSE(result->completed);

    OpsServerOptions options;
    options.metrics = &registry;
    options.status = &board;
    OpsServer ops(options);
    HttpRequest request;
    request.path = "/progress";
    HttpResponse response = ops.handle(request);
    ASSERT_EQ(response.status, 200);
    std::optional<corpus::JsonValue> progress =
        corpus::JsonValue::parse(response.body);
    ASSERT_TRUE(progress);

    // The board and the campaign.progress gauges are published at the
    // same checkpoint commit, so /progress and /metrics must agree.
    EXPECT_EQ(progress->getU64("completed_chunks"),
              registry.counterValue("campaign.progress",
                                    "completed_chunks"));
    EXPECT_EQ(progress->getU64("watermark"),
              registry.counterValue("campaign.progress", "watermark"));
    EXPECT_EQ(progress->getU64("seeds_committed"),
              registry.counterValue("campaign.progress",
                                    "seeds_committed"));
    EXPECT_EQ(progress->getU64("findings"),
              registry.counterValue("campaign.progress", "findings"));
    EXPECT_EQ(progress->getU64("completed_chunks"), 4u);
    EXPECT_EQ(progress->getU64("seeds_committed"), 12u);
    EXPECT_EQ(progress->getU64("chunks_total"), 6u);
    EXPECT_EQ(progress->getU64("seeds_total"), 18u);
    EXPECT_EQ(progress->getU64("checkpoints"), 2u);
    EXPECT_FALSE(progress->getBool("active"));
    EXPECT_FALSE(progress->getBool("complete"));

    // The gauges survive the checkpoint round-trip: a resume restores
    // them and drives them to their (deterministic) final values.
    corpus::CheckpointRunOptions resume;
    support::MetricsRegistry resumed_registry;
    resume.metrics = &resumed_registry;
    resume.status = &board;
    auto finished =
        corpus::runCheckpointed(*store, smallPlan(), resume, &error);
    ASSERT_TRUE(finished) << error.message;
    ASSERT_TRUE(finished->completed);
    EXPECT_EQ(resumed_registry.counterValue("campaign.progress",
                                            "completed_chunks"),
              6u);
    EXPECT_EQ(resumed_registry.counterValue("campaign.progress",
                                            "watermark"),
              6u);
    EXPECT_EQ(resumed_registry.counterValue("campaign.progress",
                                            "seeds_committed"),
              18u);
    response = ops.handle(request);
    progress = corpus::JsonValue::parse(response.body);
    ASSERT_TRUE(progress);
    EXPECT_TRUE(progress->getBool("complete"));
    EXPECT_EQ(progress->getU64("completed_chunks"), 6u);
}

TEST(ServeOps, ReadyzFollowsWatchdogStallAndRecovery)
{
    uint64_t fake_now = 0;
    support::MetricsRegistry registry;
    report::EventLog log(&registry);
    report::WatchdogOptions watchdog_options;
    watchdog_options.stallThresholdUs = 1000;
    watchdog_options.events = &log;
    watchdog_options.registry = &registry;
    watchdog_options.clock = [&] { return fake_now; };
    report::Watchdog watchdog(watchdog_options);
    core::CampaignObserver observer = watchdog.wrap({});

    OpsServerOptions options;
    options.metrics = &registry;
    options.watchdog = &watchdog;
    OpsServer ops(options);
    HttpRequest request;
    request.path = "/readyz";

    EXPECT_EQ(ops.handle(request).status, 200);

    // Stall: the latch fires and /readyz flips to 503.
    fake_now = 2000;
    EXPECT_TRUE(watchdog.poll());
    EXPECT_EQ(ops.handle(request).status, 503);

    // Progress re-arms the watchdog and /readyz recovers to 200.
    core::CampaignProgress progress;
    progress.seedsDone = 5;
    progress.seedsTotal = 10;
    observer(progress);
    EXPECT_EQ(ops.handle(request).status, 200);

    // Both transitions are on the record, in the ops phase.
    std::vector<support::Event> events = log.sorted();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type(), "watchdog_stall");
    EXPECT_EQ(events[1].type(), "watchdog_recovered");
    EXPECT_EQ(events[0].key().phase, support::kPhaseOps);
    EXPECT_EQ(events[1].key().phase, support::kPhaseOps);
}

/** One completed small campaign in a store, with server attached. */
struct ServedCampaign {
    explicit ServedCampaign(const std::string &dir)
    {
        corpus::OpenOptions open_options;
        open_options.metrics = &registry;
        corpus::StoreError error;
        store = corpus::CorpusStore::open(dir, &error, open_options);
        EXPECT_TRUE(store) << error.message;
        corpus::CheckpointRunOptions run;
        run.metrics = &registry;
        run.events = &log;
        run.status = &board;
        auto result =
            corpus::runCheckpointed(*store, smallPlan(), run, &error);
        EXPECT_TRUE(result) << error.message;
        findings = result ? result->findings.size() : 0;

        OpsServerOptions options;
        options.metrics = &registry;
        options.store = store.get();
        options.events = &log;
        options.status = &board;
        ops = std::make_unique<OpsServer>(options);
    }

    HttpResponse
    get(const std::string &path, const std::string &query = {})
    {
        HttpRequest request;
        request.path = path;
        request.query = query;
        return ops->handle(request);
    }

    support::MetricsRegistry registry;
    report::EventLog log{&registry};
    corpus::CampaignStatusBoard board;
    std::unique_ptr<corpus::CorpusStore> store;
    std::unique_ptr<OpsServer> ops;
    size_t findings = 0;
};

TEST(ServeOps, ReportEndpointMatchesOnDiskReport)
{
    TempDir dir("report");
    TempDir out("report_out");
    ServedCampaign served(dir.str());

    report::CampaignReportOptions report_options;
    report_options.html = true;
    report_options.dossiers = false;
    corpus::StoreError error;
    ASSERT_TRUE(report::writeCampaignReport(
        *served.store, out.str(), report_options, &error))
        << error.message;

    // Byte-for-byte: the live endpoints render through exactly the
    // writeCampaignReport code paths.
    HttpResponse markdown = served.get("/report");
    ASSERT_EQ(markdown.status, 200);
    EXPECT_EQ(markdown.contentType, "text/markdown; charset=utf-8");
    EXPECT_EQ(markdown.body, readFile(out.str() + "/report.md"));

    HttpResponse html = served.get("/report.html");
    ASSERT_EQ(html.status, 200);
    EXPECT_EQ(html.contentType, "text/html; charset=utf-8");
    EXPECT_EQ(html.body, readFile(out.str() + "/report.html"));
}

TEST(ServeOps, DossierAndReportRequestsLoadTheStoreOnce)
{
    TempDir dir("dossierload");
    ServedCampaign served(dir.str());
    ASSERT_GT(served.findings, 0u);
    HttpResponse index = served.get("/dossiers");
    ASSERT_EQ(index.status, 200);
    std::optional<corpus::JsonValue> parsed =
        corpus::JsonValue::parse(index.body);
    ASSERT_TRUE(parsed);
    std::string fingerprint =
        parsed->get("dossiers")->items[0].getString("fingerprint");
    auto loaded = [&] {
        return served.registry.counterValue("corpus.records_loaded");
    };
    const uint64_t records = served.store->stats().records;

    // Each /dossier/<fp> and /report request reads every stored record
    // exactly once, and repeated requests answer identically.
    uint64_t before = loaded();
    HttpResponse first =
        served.get("/dossier/" + fingerprint, "format=json");
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(loaded(), before + records);
    EXPECT_EQ(served.get("/dossier/" + fingerprint, "format=json").body,
              first.body);
    EXPECT_EQ(served.get("/report").status, 200);
    EXPECT_EQ(loaded(), before + 3 * records);
}

TEST(ServeOps, DossierAndEventsEndpoints)
{
    TempDir dir("dossier");
    ServedCampaign served(dir.str());
    ASSERT_GT(served.findings, 0u)
        << "smallPlan must produce findings for this test";

    HttpResponse index = served.get("/dossiers");
    ASSERT_EQ(index.status, 200);
    std::optional<corpus::JsonValue> parsed =
        corpus::JsonValue::parse(index.body);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->getU64("findings"), served.findings);
    const corpus::JsonValue *dossiers = parsed->get("dossiers");
    ASSERT_TRUE(dossiers && dossiers->isArray());
    ASSERT_EQ(dossiers->items.size(), served.findings);

    std::string fingerprint =
        dossiers->items[0].getString("fingerprint");
    ASSERT_FALSE(fingerprint.empty());

    // The served dossier equals the library render, both formats.
    corpus::StoreError error;
    std::optional<report::Dossier> dossier = report::buildDossier(
        *served.store, &served.log, fingerprint, &error);
    ASSERT_TRUE(dossier) << error.message;
    HttpResponse as_json =
        served.get("/dossier/" + fingerprint, "format=json");
    ASSERT_EQ(as_json.status, 200);
    EXPECT_EQ(as_json.body, report::dossierJson(*dossier));
    HttpResponse as_md =
        served.get("/dossier/" + fingerprint, "format=md");
    ASSERT_EQ(as_md.status, 200);
    EXPECT_EQ(as_md.body, report::dossierMarkdown(*dossier));
    EXPECT_EQ(
        served.get("/dossier/" + fingerprint, "format=pdf").status,
        400);
    EXPECT_EQ(served
                  .get("/dossier/prog:ffff|markers:1|by:a|ref:b",
                       "format=json")
                  .status,
              404);

    // /events pages over emission order with a stable cursor.
    size_t total = served.log.size();
    ASSERT_GT(total, 0u);
    HttpResponse events = served.get("/events", "since=0&limit=5");
    ASSERT_EQ(events.status, 200);
    std::optional<corpus::JsonValue> page =
        corpus::JsonValue::parse(events.body);
    ASSERT_TRUE(page);
    EXPECT_EQ(page->getU64("total"), total);
    EXPECT_EQ(page->getU64("next"), 5u);
    const corpus::JsonValue *items = page->get("events");
    ASSERT_TRUE(items && items->isArray());
    EXPECT_EQ(items->items.size(), 5u);

    // Resume from the cursor: pages chain without gaps.
    HttpResponse rest = served.get("/events", "since=5");
    std::optional<corpus::JsonValue> rest_page =
        corpus::JsonValue::parse(rest.body);
    ASSERT_TRUE(rest_page);
    const corpus::JsonValue *rest_items = rest_page->get("events");
    ASSERT_TRUE(rest_items && rest_items->isArray());
    EXPECT_EQ(rest_items->items.size(),
              std::min<size_t>(total - 5, 256));
    EXPECT_EQ(rest_page->getU64("next"),
              5 + rest_items->items.size());

    // A cursor at (or past) the end is an empty page, not an error.
    HttpResponse beyond = served.get(
        "/events", "since=" + std::to_string(total + 10));
    std::optional<corpus::JsonValue> beyond_page =
        corpus::JsonValue::parse(beyond.body);
    ASSERT_TRUE(beyond_page);
    EXPECT_TRUE(beyond_page->get("events")->items.empty());

    // Malformed cursors are rejected.
    EXPECT_EQ(served.get("/events", "since=banana").status, 400);
    EXPECT_EQ(served.get("/events", "limit=0").status, 400);
}

TEST(ServeHttp, RequestReadSurvivesSignalsMidRequest)
{
    // Regression: the recv() loop used to treat EINTR as a closed
    // connection while the send path retried it — so a SIGCHLD-heavy
    // process (a fleet coordinator reaping workers) dropped requests
    // that arrived while a signal landed. Install a handler WITHOUT
    // SA_RESTART and pound the reading thread with signals while the
    // request trickles in.
    struct sigaction action = {};
    action.sa_handler = [](int) {};
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // deliberately no SA_RESTART
    struct sigaction previous = {};
    ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string head;
    bool line_complete = false;
    std::atomic<bool> done{false};
    std::thread reader([&] {
        bool complete =
            readRequestHead(fds[0], 8 * 1024, head, line_complete);
        EXPECT_TRUE(complete);
        done.store(true);
    });
    pthread_t reader_handle = reader.native_handle();

    const std::string request = "GET /healthz HTTP/1.1\r\n\r\n";
    for (size_t i = 0; i < request.size(); ++i) {
        // A burst of signals between every byte: each one interrupts
        // the blocked recv() with EINTR.
        for (int burst = 0; burst < 8; ++burst) {
            ::pthread_kill(reader_handle, SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
        ASSERT_EQ(::send(fds[1], request.data() + i, 1, 0), 1);
    }
    reader.join();
    EXPECT_TRUE(done.load());
    EXPECT_TRUE(line_complete);
    EXPECT_EQ(head, request);

    ::close(fds[0]);
    ::close(fds[1]);
    ::sigaction(SIGUSR1, &previous, nullptr);
}

TEST(ServeOps, ProgressEtaIsNullUntilRateExistsAndZeroWhenDone)
{
    // "ETA unknown" and "ETA zero" are different answers. A campaign
    // with committed work remaining but no committed pipeline time
    // yet has no rate to extrapolate: eta_seconds must be null, not
    // 0.0 (which would read as "finished" to a dashboard).
    corpus::CampaignStatusBoard board;
    corpus::CampaignStatusBoard::Snapshot snap;
    snap.active = true;
    snap.seedsTotal = 100;
    snap.seedsCommitted = 0;
    snap.stageUs = 0;
    board.publish(snap);

    OpsServerOptions options;
    options.status = &board;
    OpsServer ops(options);
    HttpRequest request;
    request.method = "GET";
    request.path = "/progress";
    HttpResponse response = ops.handle(request);
    ASSERT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"eta_seconds\":null"),
              std::string::npos)
        << response.body;

    // With committed rate, the ETA is a number again.
    snap.seedsCommitted = 50;
    snap.stageUs = 1'000'000;
    board.publish(snap);
    response = ops.handle(request);
    EXPECT_EQ(response.body.find("\"eta_seconds\":null"),
              std::string::npos)
        << response.body;

    // And nothing-remaining is a true zero, not null.
    snap.seedsCommitted = 100;
    board.publish(snap);
    response = ops.handle(request);
    EXPECT_NE(response.body.find("\"eta_seconds\":\"0.000\""),
              std::string::npos)
        << response.body;
}

/** Deterministic FleetOpsSource stub for endpoint-contract tests. */
class StubFleetSource final : public FleetOpsSource {
  public:
    corpus::CampaignStatusBoard::Snapshot
    progress() const override
    {
        corpus::CampaignStatusBoard::Snapshot snap;
        snap.active = true;
        snap.seedsTotal = 40;
        snap.seedsCommitted = 10;
        snap.chunksTotal = 8;
        snap.completedChunks = 2;
        snap.watermark = 2;
        snap.stageUs = 2'000'000;
        return snap;
    }

    void
    mergeWorkerMetrics(support::MetricsRegistry &into) const override
    {
        // Two "workers" worth of dumps.
        into.counter("campaign.seeds_done").add(6);
        into.counter("campaign.seeds_done").add(4);
        into.histogram("campaign.stage_us", "compile").observe(123);
    }

    std::string
    fleetJson() const override
    {
        return "{\"workers_spawned\":2}";
    }
};

TEST(ServeOps, FleetModeAggregatesProgressMetricsAndFleet)
{
    StubFleetSource fleet;
    support::MetricsRegistry registry;
    registry.counter("serve.requests").add(3); // coordinator-local

    OpsServerOptions options;
    options.metrics = &registry;
    options.fleet = &fleet;
    OpsServer ops(options);

    HttpRequest request;
    request.method = "GET";

    // /progress falls through to the fleet snapshot when no local
    // status board is attached.
    request.path = "/progress";
    HttpResponse progress = ops.handle(request);
    ASSERT_EQ(progress.status, 200);
    std::optional<corpus::JsonValue> doc =
        corpus::JsonValue::parse(progress.body);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->getU64("seeds_total"), 40u);
    EXPECT_EQ(doc->getU64("seeds_committed"), 10u);
    EXPECT_EQ(doc->getU64("completed_chunks"), 2u);

    // /metrics merges the coordinator's own registry with every
    // worker dump — and the scrape is non-destructive (a second
    // scrape sees identical, not doubled, numbers).
    request.path = "/metrics";
    HttpResponse metrics = ops.handle(request);
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("campaign_seeds_done 10"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(metrics.body.find("serve_requests 3"),
              std::string::npos);
    HttpResponse again = ops.handle(request);
    EXPECT_EQ(metrics.body, again.body);

    // /fleet serves the source's JSON verbatim (plus newline).
    request.path = "/fleet";
    HttpResponse fleet_response = ops.handle(request);
    ASSERT_EQ(fleet_response.status, 200);
    EXPECT_EQ(fleet_response.body, "{\"workers_spawned\":2}\n");

    // Without a fleet, /fleet is a 404 like the other unattached
    // endpoints.
    OpsServerOptions bare;
    OpsServer bare_ops(bare);
    EXPECT_EQ(bare_ops.handle(request).status, 404);
}

} // namespace
} // namespace dce::serve
