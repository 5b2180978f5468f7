/**
 * @file
 * The per-seed pipeline rebuilt from each layer's public functions,
 * with a benchmark-side span around every call: gen::generateProgram,
 * instrument::instrumentUnit, lang::printUnit, ir::lowerToIr,
 * core::groundTruthFor, ir::cloneModule, Compiler::optimize,
 * Compilation::survivingMarkers and core::PrimaryAnalysis. It computes
 * what core::SeedProcessor::process computes, in the same order, so the
 * spans account for the seed's time layer by layer; traced runs compare
 * the two to gate the unattributed share.
 */
#pragma once

#include <vector>

#include "common.hpp"
#include "support/metrics.hpp"

namespace perfbench {

struct TracedSeed {
    dce::core::ProgramRecord record;
    uint64_t steps = 0; ///< interpreter steps of the O0 run
};

/**
 * Run one seed through the spanned pipeline. Spans: core.seed (root)
 * with children gen.generate_us, instrument.instrument_us, ir.lower_us,
 * interp.ground_truth_us and, per build, ir.clone_us,
 * opt.optimize_us.<level>, compiler.survival_us and core.primary_us.
 * When @p print is set, lang.print_us times the canonical text the
 * checkpointed runner stores (a child of core.seed). When
 * @p pass_metrics is set, every pipeline run records its pass
 * statistics there (pass.instrs_removed{pass}, ...); that takes a
 * module census after each pass, so the accounted runs pass null,
 * exactly as the campaign engine does.
 */
TracedSeed traceSeed(uint64_t seed,
                     const std::vector<dce::core::BuildSpec> &builds,
                     const dce::gen::GenConfig &config, bool primary,
                     bool print, SpanRecorder &spans,
                     dce::support::MetricsRegistry *pass_metrics = nullptr);

/** The span names traceSeed records under core.seed, i.e. the layers
 * the per-seed accounting sums. */
const std::vector<std::string> &seedLayerSpans();

} // namespace perfbench
