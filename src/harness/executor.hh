/**
 * @file
 * The one execution seam every plan-running driver shares.
 *
 * An Executor reads the canonical execution options once — `--jobs`,
 * `--workers`/`--worker-bin`, `--max-retries`,
 * `--cache-dir`/`--cache`, `--checkpoint-dir` and
 * `--trace-out`/`--trace-stats` — and runs each plan either
 * in-process through one BatchRunner or, with `--workers=N`, as a
 * private local dispatch campaign (harness/dispatch,
 * localCampaignFromCli). Both honour the same ordered-sink contract,
 * so a driver's deterministic output is byte-identical either way.
 *
 * The Executor owns the trace report sinks (harness/trace_report):
 * every run() feeds its results into them, so one trace document and
 * one statistics CSV span every plan a driver runs. They close when
 * the Executor is destroyed.
 */

#ifndef TP_HARNESS_EXECUTOR_HH
#define TP_HARNESS_EXECUTOR_HH

#include <memory>
#include <string>
#include <vector>

#include "harness/batch_runner.hh"
#include "harness/dispatch.hh"
#include "harness/result_cache.hh"

namespace tp {
class CliArgs;
}

namespace tp::harness {

/** See file comment. */
class Executor
{
  public:
    /** In-process, or a local campaign under `--workers=N`. */
    explicit Executor(const CliArgs &args);

    /**
     * Always run plans as the dispatch campaign `campaign` (the
     * taskpoint_dispatch coordinator, whose spool and fleet options
     * are its own); `args` supplies the trace options.
     */
    Executor(const CliArgs &args, DispatchOptions campaign);

    /**
     * Run `plan` into `sink`; same sink contract as BatchRunner::run
     * in both modes. The trace sinks see every result but never
     * begin() or end().
     */
    void run(const ExperimentPlan &plan, ResultSink &sink) const;

    /** Convenience: run `plan` collecting into a vector. */
    std::vector<BatchResult> run(const ExperimentPlan &plan) const;

    /**
     * See BatchRunner::resolveTrace: realizes the trace in this
     * process in both modes.
     */
    std::shared_ptr<const trace::TaskTrace>
    resolveTrace(const JobSpec &job) const
    {
        return runner_.resolveTrace(job);
    }

    /**
     * Emit the result-cache hit/miss summary when this process
     * consults a cache. A campaign's runners consult the forwarded
     * cache directory themselves, so then there is nothing to report.
     */
    void reportCacheStats() const;

  private:
    Executor(const CliArgs &args, DispatchOptions campaign,
             bool inProcess);

    DispatchOptions campaign_;
    bool inProcess_;
    std::unique_ptr<ResultCache> cache_;
    std::unique_ptr<ResultCache> checkpoints_;
    BatchRunner runner_;
    std::vector<std::unique_ptr<ResultSink>> traceSinks_;
};

/**
 * The generic plan report of replay_plan and the taskpoint_dispatch
 * coordinator: run `plan` through `executor` into a summary table
 * titled `title` and an error-statistics accumulator, also into
 * `--csv=FILE` / `--json=FILE` row streams when given, then report
 * the cache statistics and the "error over" line.
 */
void runPlanReport(const Executor &executor, const ExperimentPlan &plan,
                   const std::string &title, const CliArgs &args);

} // namespace tp::harness

#endif // TP_HARNESS_EXECUTOR_HH
