#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include <sys/resource.h>

#include "core/analysis.hpp"
#include "interp/interpreter.hpp"
#include "ir/lowering.hpp"
#include "support/markers.hpp"

namespace perfbench {

using namespace dce;

void
Outcome::opFailed(const std::string &why)
{
    ++failed;
    if (problems.size() < 20)
        problems.push_back(why);
}

void
Outcome::checkFailed(const std::string &why)
{
    correct = false;
    if (problems.size() < 20)
        problems.push_back(why);
}

void
Outcome::absorb(const Outcome &other)
{
    correct = correct && other.correct;
    attempted += other.attempted;
    failed += other.failed;
    for (const auto &[kind, n] : other.attemptedBy)
        attemptedBy[kind] += n;
    for (const auto &[reason, n] : other.invalidBy)
        invalidBy[reason] += n;
    metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
    notes.insert(notes.end(), other.notes.begin(), other.notes.end());
    problems.insert(problems.end(), other.problems.begin(),
                    other.problems.end());
}

double
cpuSeconds()
{
    auto seconds = [](const rusage &usage) {
        return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
               double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
                   1e6;
    };
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return seconds(self) + seconds(children);
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t rank = size_t(std::ceil(q * double(values.size())));
    return values[rank ? rank - 1 : 0];
}

//===-- span recorder ----------------------------------------------------===//

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

SpanRecorder::Scope::Scope(SpanRecorder &recorder, const char *layer,
                           std::string name)
    : recorder_(recorder)
{
    if (!recorder_.enabled)
        return;
    index_ = int(recorder_.spans_.size());
    recorder_.spans_.push_back(
        {layer, std::move(name), nowNs(), 0, recorder_.open_});
    recorder_.open_ = index_;
}

SpanRecorder::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &span = recorder_.spans_[size_t(index_)];
    span.endNs = nowNs();
    recorder_.open_ = span.parent;
}

double
SpanRecorder::totalUs(const std::string &name) const
{
    double total = 0;
    for (const Span &span : spans_) {
        if (span.name == name)
            total += double(span.endNs - span.startNs) / 1e3;
    }
    return total;
}

uint64_t
SpanRecorder::count(const std::string &name) const
{
    return uint64_t(std::count_if(
        spans_.begin(), spans_.end(),
        [&](const Span &span) { return span.name == name; }));
}

double
SpanRecorder::meanUs(const std::string &name) const
{
    uint64_t n = count(name);
    return n ? totalUs(name) / double(n) : 0;
}

std::map<std::string, double>
SpanRecorder::selfMsByLayer() const
{
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            child_ns[size_t(span.parent)] += span.endNs - span.startNs;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        self[span.layer] +=
            double(span.endNs - span.startNs - child_ns[i]) / 1e6;
    }
    return self;
}

std::string
formatSelfTimes(const std::string &workload,
                const std::map<std::string, double> &self_ms)
{
    std::string line = "self time (ms) " + workload + ":";
    char buf[96];
    for (const auto &[layer, ms] : self_ms) {
        std::snprintf(buf, sizeof buf, " %s=%.1f", layer.c_str(), ms);
        line += buf;
    }
    return line;
}

//===-- record checks ----------------------------------------------------===//

namespace {

bool
subset(const std::set<unsigned> &a, const std::set<unsigned> &b)
{
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

std::string
seedTag(uint64_t seed)
{
    return "seed " + std::to_string(seed) + ": ";
}

} // namespace

std::string
checkRecord(const core::ProgramRecord &record, size_t builds,
            bool with_primary)
{
    if (!record.valid)
        return {};
    std::string tag = seedTag(record.seed);
    std::set<unsigned> all;
    for (unsigned m : record.trueAlive) {
        if (m >= record.markerCount || record.trueDead.count(m))
            return tag + "trueAlive/trueDead do not partition the markers";
        all.insert(m);
    }
    for (unsigned m : record.trueDead) {
        if (m >= record.markerCount)
            return tag + "trueDead names a marker out of range";
        all.insert(m);
    }
    if (all.size() != record.markerCount)
        return tag + "trueAlive ∪ trueDead misses markers";
    if (record.alive.size() != builds || record.missed.size() != builds ||
        (with_primary && record.primary.size() != builds))
        return tag + "per-build vectors have the wrong size";
    for (size_t b = 0; b < builds; ++b) {
        std::string build = "build " + std::to_string(b) + ": ";
        if (record.missed[b] !=
            core::setIntersect(record.alive[b], record.trueDead))
            return tag + build + "missed != alive ∩ trueDead";
        if (with_primary && !subset(record.primary[b], record.missed[b]))
            return tag + build + "primary ⊄ missed";
        if (!subset(record.trueAlive, record.alive[b]))
            return tag + build +
                   "unsound: an executed marker was eliminated";
    }
    return {};
}

std::string
deepCheckRecord(const core::ProgramRecord &record,
                const std::vector<core::BuildSpec> &builds,
                const gen::GenConfig &config)
{
    std::string tag = seedTag(record.seed);
    instrument::Instrumented prog = core::makeProgram(record.seed, config);
    if (prog.markerCount() != record.markerCount)
        return tag + "regenerated program has another marker count";
    std::unique_ptr<ir::Module> lowered = ir::lowerToIr(*prog.unit);
    interp::ExecResult base = interp::execute(*lowered);
    if (!base.ok()) {
        return record.valid ? tag + "record valid but the O0 run fails"
                            : std::string();
    }
    if (!record.valid)
        return tag + "O0 run succeeds but the record is invalid";
    std::set<unsigned> executed;
    for (const std::string &name : base.calledExternals) {
        if (auto index = support::markerIndex(name))
            executed.insert(*index);
    }
    if (executed != record.trueAlive)
        return tag + "recomputed ground truth differs from the record";
    for (size_t b = 0; b < builds.size(); ++b) {
        std::string build = builds[b].name() + ": ";
        compiler::Compilation compilation =
            builds[b].make().compile(*prog.unit);
        if (!compilation.ok())
            return tag + build + "compile failed: " + compilation.error();
        interp::ExecResult optimized =
            interp::execute(compilation.module());
        if (!interp::observablyEqual(base, optimized))
            return tag + build + "optimized module differs from O0: " +
                   interp::explainDifference(base, optimized);
        // assembly() mutates the module (phi demotion), so it runs
        // after the translation-validation execution.
        if (core::aliveMarkersInAsm(compilation.assembly()) !=
            record.alive[b])
            return tag + build +
                   "alive set in the assembly differs from the record";
    }
    return {};
}

void
tallyInvalid(const core::ProgramRecord &record, Outcome &outcome)
{
    if (!record.valid)
        ++outcome.invalidBy[core::invalidReasonName(record.invalidReason)];
}

std::vector<core::BuildSpec>
headBuilds()
{
    std::vector<core::BuildSpec> builds;
    for (compiler::CompilerId id :
         {compiler::CompilerId::Alpha, compiler::CompilerId::Beta}) {
        for (compiler::OptLevel level : compiler::allOptLevels())
            builds.push_back({id, level, SIZE_MAX});
    }
    return builds;
}

uint64_t
directoryBytes(const std::string &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

} // namespace perfbench
