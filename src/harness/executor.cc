#include "harness/executor.hh"

#include <cstdio>

#include "common/cli.hh"
#include "harness/experiment.hh"
#include "harness/trace_report.hh"

namespace tp::harness {

namespace {

BatchOptions
inProcessOptions(const DispatchOptions &campaign, ResultCache *cache,
                 ResultCache *checkpoints)
{
    BatchOptions bo;
    bo.jobs = campaign.jobsPerRunner;
    bo.progress = true;
    bo.cache = cache;
    bo.checkpoints = checkpoints;
    bo.collectTimelines = campaign.collectTimelines;
    return bo;
}

/**
 * Copies each result into the executor's trace sinks, then forwards
 * the original to the caller's sink. The trace sinks' begin()/end()
 * are deliberately not forwarded: their documents span every plan
 * the executor runs (references, then a sampled sweep) and close
 * when it is destroyed.
 */
class TraceTee final : public ResultSink
{
  public:
    TraceTee(ResultSink &inner,
             const std::vector<std::unique_ptr<ResultSink>> &taps)
        : inner_(inner), taps_(taps)
    {}

    void
    begin(std::size_t totalJobs) override
    {
        inner_.begin(totalJobs);
    }

    void
    consume(BatchResult &&result) override
    {
        for (const std::unique_ptr<ResultSink> &tap : taps_)
            tap->consume(BatchResult(result));
        inner_.consume(std::move(result));
    }

    void end() override { inner_.end(); }

  private:
    ResultSink &inner_;
    const std::vector<std::unique_ptr<ResultSink>> &taps_;
};

} // namespace

Executor::Executor(const CliArgs &args)
    : Executor(args, localCampaignFromCli(args), true)
{
}

Executor::Executor(const CliArgs &args, DispatchOptions campaign)
    : Executor(args, std::move(campaign), false)
{
}

// A campaign consults the cache and checkpoint store inside its
// runners (the directories are forwarded); instances here would only
// ever report zero hits.
Executor::Executor(const CliArgs &args, DispatchOptions campaign,
                   bool inProcess)
    : campaign_(std::move(campaign)),
      inProcess_(inProcess && campaign_.localRunners == 0),
      cache_(inProcess_ ? resultCacheFromCli(args) : nullptr),
      checkpoints_(inProcess_
                       ? openCheckpointDir(campaign_.checkpointDir)
                       : nullptr),
      runner_(inProcessOptions(campaign_, cache_.get(),
                               checkpoints_.get()))
{
    if (const std::string f = args.getString(kTraceOutOption, "");
        !f.empty())
        traceSinks_.push_back(std::make_unique<ChromeTraceSink>(f));
    if (const std::string f = args.getString(kTraceStatsOption, "");
        !f.empty()) {
        traceSinks_.push_back(std::make_unique<TimelineStatsSink>(f));
        // One CSV header for the whole executor, not per plan.
        traceSinks_.back()->begin(0);
    }
}

void
Executor::run(const ExperimentPlan &plan, ResultSink &sink) const
{
    TraceTee tee(sink, traceSinks_);
    if (inProcess_)
        runner_.run(plan, tee);
    else
        runDispatchCampaign(plan, campaign_, tee);
}

std::vector<BatchResult>
Executor::run(const ExperimentPlan &plan) const
{
    CollectingSink sink;
    run(plan, sink);
    return sink.take();
}

void
Executor::reportCacheStats() const
{
    if (cache_)
        progress(cache_->statsLine());
}

void
runPlanReport(const Executor &executor, const ExperimentPlan &plan,
              const std::string &title, const CliArgs &args)
{
    TableSink table(title);
    StatsSink stats;
    std::vector<ResultSink *> sinks = {&table, &stats};
    std::unique_ptr<CsvSink> csv;
    if (const std::string f = args.getString("csv", ""); !f.empty())
        sinks.push_back((csv = std::make_unique<CsvSink>(f)).get());
    std::unique_ptr<JsonSink> json;
    if (const std::string f = args.getString("json", ""); !f.empty())
        sinks.push_back((json = std::make_unique<JsonSink>(f)).get());
    TeeSink tee(std::move(sinks));

    executor.run(plan, tee);
    executor.reportCacheStats();

    if (stats.errorStats().count() > 0) {
        const RunningStats &err = stats.errorStats();
        std::printf("error over %zu comparisons: mean %.2f%%, "
                    "max %.2f%%\n",
                    err.count(), err.mean(), err.max());
    }
}

} // namespace tp::harness
