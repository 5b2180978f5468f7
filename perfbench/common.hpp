/**
 * @file
 * Shared pieces of the workflow benchmark: run options, the result
 * every workload fills in (operation counts, metrics, check failures),
 * wall/CPU/RSS probes, the benchmark-side span recorder used by traced
 * runs, and the record-level output checks shared by the campaign and
 * fleet workloads.
 *
 * Everything here sits outside the program: spans wrap calls into the
 * layers' public functions, and checks recompute properties from the
 * public API instead of comparing against stored output.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line options of one benchmark run. */
struct RunOptions {
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Scratch directory (inside the checkout) for stores and fleets. */
    std::string workdir;
    /** This executable, for fleet workers started by fork+exec. */
    std::string self;
};

/** What one workload run reports. */
struct Outcome {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Attempted operations by kind (seeds, findings, ...). */
    std::map<std::string, uint64_t> attemptedBy;
    /** Invalid programs by core::InvalidReason: an outcome the method
     * classifies, not a failed operation. */
    std::map<std::string, uint64_t> invalidBy;
    struct Metric {
        std::string name;
        double value = 0;
        std::string unit;
    };
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    /** The first check failures, for the log. */
    std::vector<std::string> problems;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void
    attempt(const std::string &kind, uint64_t count)
    {
        attempted += count;
        attemptedBy[kind] += count;
    }
    /** One operation failed (crash or violated check). */
    void opFailed(const std::string &why);
    /** A check not tied to one operation failed. */
    void checkFailed(const std::string &why);
    void note(const std::string &line) { notes.push_back(line); }
    /** Fold @p other's counts, metrics, notes and problems into this. */
    void absorb(const Outcome &other);
};

/** CPU seconds (user + system) of this process plus its reaped
 * children. */
double cpuSeconds();

/** Largest resident set, in MB, of this process or any reaped child. */
double peakRssMb();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);
/** Nearest-rank percentile, q in [0, 1] (0 when empty). */
double percentile(std::vector<double> values, double q);

/** The seed/layer breakdown spans of a traced run. Single-threaded:
 * every span is opened and closed on the thread that owns the
 * recorder. */
class SpanRecorder {
  public:
    struct Span {
        std::string layer; ///< module name: gen, opt, core, ...
        std::string name;  ///< metric-style name: opt.optimize_us.O3
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1; ///< index of the enclosing span, -1 = root
    };

    /** RAII span; a no-op when the recorder is disabled. */
    class Scope {
      public:
        Scope(SpanRecorder &recorder, const char *layer,
              std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &recorder_;
        int index_ = -1;
    };

    bool enabled = true;

    /** Σ duration of spans named @p name, in µs. */
    double totalUs(const std::string &name) const;
    /** Number of spans named @p name. */
    uint64_t count(const std::string &name) const;
    /** Mean duration of spans named @p name, in µs (0 if none). */
    double meanUs(const std::string &name) const;
    /** Self time per layer (span duration minus the part covered by
     * its child spans), in ms. */
    std::map<std::string, double> selfMsByLayer() const;

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Printable "name=value" list of @p self_ms for the log. */
std::string formatSelfTimes(const std::string &workload,
                            const std::map<std::string, double> &self_ms);

/**
 * Record-level properties every campaign record must have (the
 * paper's definitions, §3): trueAlive/trueDead partition
 * [0, markerCount); missed == alive ∩ trueDead; primary ⊆ missed; and
 * soundness — no build eliminates a marker that executed (trueAlive ⊆
 * alive). Returns the first violation, empty when the record holds.
 */
std::string checkRecord(const dce::core::ProgramRecord &record,
                        size_t builds, bool with_primary);

/**
 * Independent recomputation for one seed: regenerate the program,
 * lower it afresh, take ground truth with interp::execute, and for
 * every build compile from the AST, check translation validation
 * (optimized module observably equal to O0) and that the alive set
 * grepped from the emitted assembly equals the record's. Returns the
 * first violation, empty when the record holds.
 */
std::string deepCheckRecord(const dce::core::ProgramRecord &record,
                            const std::vector<dce::core::BuildSpec> &builds,
                            const dce::gen::GenConfig &config);

/** Fold a record's validity into @p outcome's invalid tally. */
void tallyInvalid(const dce::core::ProgramRecord &record, Outcome &outcome);

/** The ten head builds: alpha and beta at O0, O1, Os, O2, O3. */
std::vector<dce::core::BuildSpec> headBuilds();

/** Bytes of every regular file under @p dir. */
uint64_t directoryBytes(const std::string &dir);

} // namespace perfbench
