#include "harness/executor.hh"

#include "harness/experiment.hh"

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

} // namespace

// A campaign consults the cache and checkpoint store inside its
// runners (the directories are forwarded); instances here would only
// ever report zero hits.
Executor::Executor(const CliArgs &args)
    : campaign_(localCampaignFromCli(args)),
      cache_(inProcess() ? resultCacheFromCli(args) : nullptr),
      checkpoints_(inProcess()
                       ? openCheckpointDir(campaign_.checkpointDir)
                       : nullptr),
      runner_(inProcessOptions(campaign_, cache_.get(),
                               checkpoints_.get()))
{
}

void
Executor::run(const ExperimentPlan &plan, ResultSink &sink) const
{
    if (inProcess())
        runner_.run(plan, sink);
    else
        runDispatchCampaign(plan, campaign_, sink);
}

void
Executor::reportCacheStats() const
{
    if (cache_)
        progress(cache_->statsLine());
}

} // namespace tp::harness
