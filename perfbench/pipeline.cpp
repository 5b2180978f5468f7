#include "pipeline.hpp"

#include <optional>

#include "core/analysis.hpp"
#include "gen/generator.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"
#include "ir/clone.hpp"
#include "ir/lowering.hpp"
#include "lang/printer.hpp"

namespace perfbench {

using namespace dce;

namespace {

std::string
optimizeSpan(compiler::OptLevel level)
{
    return std::string("opt.optimize_us.") + compiler::optLevelName(level);
}

} // namespace

const std::vector<std::string> &
seedLayerSpans()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out = {
            "gen.generate_us", "instrument.instrument_us",
            "lang.print_us",   "ir.lower_us",
            "interp.ground_truth_us", "ir.clone_us",
            "compiler.survival_us",   "core.primary_us"};
        for (compiler::OptLevel level : compiler::allOptLevels())
            out.push_back(optimizeSpan(level));
        return out;
    }();
    return names;
}

TracedSeed
traceSeed(uint64_t seed, const std::vector<core::BuildSpec> &builds,
          const gen::GenConfig &config, bool primary, bool print,
          SpanRecorder &spans, support::MetricsRegistry *pass_metrics)
{
    TracedSeed out;
    core::ProgramRecord &record = out.record;
    record.seed = seed;
    std::unique_ptr<ir::Module> lowered;
    core::GroundTruth truth;
    {
        SpanRecorder::Scope seed_span(spans, "core", "core.seed");
        std::unique_ptr<lang::TranslationUnit> unit;
        {
            SpanRecorder::Scope span(spans, "gen", "gen.generate_us");
            unit = gen::generateProgram(seed, config);
        }
        instrument::Instrumented prog;
        {
            SpanRecorder::Scope span(spans, "instrument",
                                     "instrument.instrument_us");
            prog = instrument::instrumentUnit(*unit);
        }
        record.markerCount = prog.markerCount();
        if (print) {
            SpanRecorder::Scope span(spans, "lang", "lang.print_us");
            std::string text = lang::printUnit(*prog.unit);
            (void)text;
        }
        {
            SpanRecorder::Scope span(spans, "ir", "ir.lower_us");
            lowered = ir::lowerToIr(*prog.unit);
        }
        {
            SpanRecorder::Scope span(spans, "interp",
                                     "interp.ground_truth_us");
            truth = core::groundTruthFor(*lowered, record.markerCount);
        }
        record.valid = truth.valid;
        if (truth.valid) {
            record.trueAlive = truth.aliveMarkers;
            record.trueDead = truth.deadMarkers;
            record.alive.resize(builds.size());
            record.missed.resize(builds.size());
            if (primary)
                record.primary.resize(builds.size());
            std::optional<core::PrimaryAnalysis> analysis;
            for (size_t b = 0; b < builds.size(); ++b) {
                compiler::Compiler comp = builds[b].make();
                std::unique_ptr<ir::Module> clone;
                {
                    SpanRecorder::Scope span(spans, "ir", "ir.clone_us");
                    clone = ir::cloneModule(*lowered);
                }
                {
                    SpanRecorder::Scope span(
                        spans, "opt", optimizeSpan(builds[b].level));
                    comp.optimize(*clone, false, {nullptr, pass_metrics});
                }
                {
                    SpanRecorder::Scope span(spans, "compiler",
                                             "compiler.survival_us");
                    compiler::Compilation compilation(std::move(clone),
                                                      {}, "");
                    record.alive[b] = compilation.survivingMarkers();
                }
                record.missed[b] =
                    core::missedMarkers(record.alive[b], truth);
                if (primary && !record.missed[b].empty()) {
                    SpanRecorder::Scope span(spans, "core",
                                             "core.primary_us");
                    if (!analysis)
                        analysis.emplace(*lowered);
                    record.primary[b] = analysis->primary(record.missed[b]);
                }
            }
        }
    }
    // The step count comes from a separate, unspanned execution: the
    // ground-truth call does not expose it.
    out.steps = interp::execute(*lowered).steps;
    return out;
}

} // namespace perfbench
