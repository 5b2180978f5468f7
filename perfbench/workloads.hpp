/**
 * @file
 * The three workloads of the benchmark. Each runs its set-up, its
 * timed phase (untraced runs) or its spanned breakdown (traced runs),
 * checks the program's outputs, and fills an Outcome.
 */
#pragma once

#include "common.hpp"

namespace perfbench {

Outcome runCampaignWorkload(const RunOptions &run);
Outcome runFleetWorkload(const RunOptions &run);
Outcome runTriageWorkload(const RunOptions &run);

} // namespace perfbench
