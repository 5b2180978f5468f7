#include "bisect/bisect.hpp"

#include "core/analysis.hpp"

namespace dce::bisect {

bool
markerMissedAt(compiler::CompilerId id, compiler::OptLevel level,
               size_t commit_index, const lang::TranslationUnit &unit,
               unsigned marker)
{
    compiler::Compiler comp(id, level, commit_index);
    return core::aliveMarkers(unit, comp).count(marker) != 0;
}

const char *
bisectStatusName(BisectStatus status)
{
    switch (status) {
    case BisectStatus::Found:
        return "found";
    case BisectStatus::AlreadyBadAtGood:
        return "already-bad-at-good";
    case BisectStatus::NotBadAtBad:
        return "not-bad-at-bad";
    case BisectStatus::EmptyRange:
        return "empty-range";
    }
    return "unknown";
}

namespace {

/** One bisect_resolved event keyed by the marker under bisection. */
void
emitResolved(support::EventSink *events, unsigned marker, size_t good,
             size_t bad, const BisectResult &result)
{
    if (!events)
        return;
    support::Event event("bisect_resolved",
                         {support::kPhaseBisect, marker, 0});
    event.num("marker", marker)
        .num("good", good)
        .num("bad", bad)
        .str("status", bisectStatusName(result.status));
    if (result.status == BisectStatus::Found) {
        event.num("first_bad", result.firstBad)
            .str("commit", result.commit->hash);
    }
    events->emit(std::move(event));
}

} // namespace

BisectResult
bisectRegression(compiler::CompilerId id, compiler::OptLevel level,
                 const lang::TranslationUnit &unit, unsigned marker,
                 size_t good, size_t bad, support::EventSink *events)
{
    const size_t first_good = good;
    const size_t first_bad = bad;
    BisectResult result;
    if (good >= bad) {
        result.status = BisectStatus::EmptyRange;
        emitResolved(events, marker, first_good, first_bad, result);
        return result;
    }
    if (markerMissedAt(id, level, good, unit, marker)) {
        result.status = BisectStatus::AlreadyBadAtGood;
        emitResolved(events, marker, first_good, first_bad, result);
        return result;
    }
    if (!markerMissedAt(id, level, bad, unit, marker)) {
        result.status = BisectStatus::NotBadAtBad;
        emitResolved(events, marker, first_good, first_bad, result);
        return result;
    }

    while (bad - good > 1) {
        size_t mid = good + (bad - good) / 2;
        if (markerMissedAt(id, level, mid, unit, marker))
            bad = mid;
        else
            good = mid;
    }
    result.status = BisectStatus::Found;
    result.firstBad = bad;
    result.commit = &compiler::spec(id).history()[bad];
    emitResolved(events, marker, first_good, first_bad, result);
    return result;
}

} // namespace dce::bisect
