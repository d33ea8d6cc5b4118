/**
 * @file
 * The one execution seam every plan-running driver shares.
 *
 * An Executor reads the canonical execution options once — `--jobs`,
 * `--workers`/`--worker-bin`, `--max-retries`,
 * `--cache-dir`/`--cache`, `--checkpoint-dir` and the trace options'
 * "record timelines" bit — and runs each plan either in-process
 * through one BatchRunner or, with `--workers=N`, as a private local
 * dispatch campaign (harness/dispatch, localCampaignFromCli). Both
 * honour the same ordered-sink contract, so a driver's deterministic
 * output is byte-identical either way.
 */

#ifndef TP_HARNESS_EXECUTOR_HH
#define TP_HARNESS_EXECUTOR_HH

#include <memory>

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
    explicit Executor(const CliArgs &args);

    /**
     * Run `plan` into `sink`; same sink contract as BatchRunner::run
     * in both modes.
     */
    void run(const ExperimentPlan &plan, ResultSink &sink) const;

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
    bool inProcess() const { return campaign_.localRunners == 0; }

    DispatchOptions campaign_;
    std::unique_ptr<ResultCache> cache_;
    std::unique_ptr<ResultCache> checkpoints_;
    BatchRunner runner_;
};

} // namespace tp::harness

#endif // TP_HARNESS_EXECUTOR_HH
