#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "harness/batch_runner.hh"
#include "harness/dispatch.hh"
#include "workloads/workloads.hh"

namespace taskbench {

namespace fs = std::filesystem;
using namespace tp;
using harness::BatchMode;
using harness::BatchRunner;
using harness::ExperimentPlan;
using harness::JobSpec;

namespace {

using Clock = std::chrono::steady_clock;

/** Simulated machines of the paper's Table II. */
struct Arch
{
    const char *name;
    cpu::ArchConfig (*config)();
};

constexpr Arch kHighPerf{"highperf", &cpu::highPerformanceConfig};
constexpr Arch kLowPower{"lowpower", &cpu::lowPowerConfig};

/** The three TaskPoint policies every sampled job runs under. */
struct Policy
{
    const char *name;
    sampling::SamplingParams params;
};

std::vector<Policy>
policies()
{
    return {{"lazy", sampling::SamplingParams::lazy()},
            {"periodic", sampling::SamplingParams::periodic(250)},
            {"adaptive", sampling::SamplingParams::adaptive(0.01)}};
}

/** Task-instance scale of every workload (the perf_smoke setting). */
constexpr double kScale = 0.02;

/**
 * @return the instrScale that sizes `kernel`'s pinned trace to about
 *         `targetInsts` dynamic instructions, so every kernel of a
 *         sweep costs roughly the same to simulate.
 */
double
normalizedInstrScale(const std::string &kernel, double targetInsts)
{
    work::WorkloadParams p;
    p.scale = kScale;
    p.instrScale = 1.0;
    p.seed = kTraceSeed;
    const double full =
        double(work::generateWorkload(kernel, p).totalInstructions());
    return std::clamp(targetInsts / full, 0.002, 1.0);
}

JobSpec
makeJob(const std::string &kernel, double instrScale,
        std::uint64_t traceSeed, const Arch &arch, const Policy *policy)
{
    JobSpec j;
    j.workload = kernel;
    j.workloadParams.scale = kScale;
    j.workloadParams.instrScale = instrScale;
    j.workloadParams.seed = traceSeed;
    j.spec.arch = arch.config();
    j.spec.threads = 8;
    j.label = kernel + "/" + arch.name + "/";
    if (policy == nullptr) {
        j.mode = BatchMode::Reference;
        j.label += "reference";
    } else {
        j.mode = BatchMode::Sampled;
        j.sampling = policy->params;
        j.label += policy->name;
    }
    return j;
}

/**
 * Seeded Fisher-Yates over jobs[from..]: the benchmark seed picks
 * the submission order, never the trace content.
 */
void
permute(std::vector<JobSpec> &jobs, std::size_t from, std::uint64_t seed)
{
    for (std::size_t i = jobs.size(); i > from + 1; --i) {
        const std::size_t span = i - from;
        const std::size_t j =
            from + BatchRunner::jobSeed(seed, i) % span;
        std::swap(jobs[i - 1], jobs[j]);
    }
}

ExperimentPlan
pinnedPlan(std::vector<JobSpec> jobs)
{
    ExperimentPlan plan;
    plan.jobs = std::move(jobs);
    plan.baseSeed = kTraceSeed;
    plan.deriveSeeds = false; // seeds are pinned per trace above
    return plan;
}

/**
 * Streams a campaign's results into a CsvSink and a result vector,
 * stamping the time the last row was delivered.
 */
class ReportSink final : public harness::ResultSink
{
  public:
    ReportSink() : csv_(out_) {}

    void
    begin(std::size_t totalJobs) override
    {
        total_ = totalJobs;
        results_.reserve(totalJobs);
        csv_.begin(totalJobs);
    }

    void
    consume(harness::BatchResult &&result) override
    {
        harness::BatchResult copy = result;
        csv_.consume(std::move(copy));
        results_.push_back(std::move(result));
        if (results_.size() == total_)
            lastRow_ = Clock::now();
    }

    void end() override { csv_.end(); }

    Clock::time_point lastRow() const { return lastRow_; }
    std::vector<harness::BatchResult> takeResults()
    {
        return std::move(results_);
    }
    std::string csv() const { return out_.str(); }

  private:
    std::ostringstream out_;
    harness::CsvSink csv_;
    std::size_t total_ = 0;
    std::vector<harness::BatchResult> results_;
    Clock::time_point lastRow_ = Clock::now();
};

/** Sink-agnostic finish of a CampaignRun. */
CampaignRun
finish(ReportSink &sink, Clock::time_point t0, std::size_t workers)
{
    CampaignRun run;
    run.seconds =
        std::chrono::duration<double>(sink.lastRow() - t0).count();
    run.results = sink.takeResults();
    run.csv = sink.csv();
    run.workers = workers;
    return run;
}

harness::ResultCacheStats
minus(const harness::ResultCacheStats &a,
      const harness::ResultCacheStats &b)
{
    harness::ResultCacheStats d;
    d.hits = a.hits - b.hits;
    d.misses = a.misses - b.misses;
    d.stores = a.stores - b.stores;
    d.evictions = a.evictions - b.evictions;
    d.failedStores = a.failedStores - b.failedStores;
    return d;
}

// ---------------------------------------------------------------------
// paper-accuracy
// ---------------------------------------------------------------------

/**
 * Six kernels covering Table I's properties, each as one
 * full-detailed reference plus lazy, periodic and adaptive(1%)
 * sampled runs of the same pinned trace on the high-performance
 * machine. Cache off; the references run inside the campaign, so
 * pairing the rows gives the error. instrScale sizes each reference
 * to 0.3-0.6 s of detailed simulation on the baseline machine, which
 * keeps cholesky's tasks at about the 1024-instruction quantum.
 */
class PaperAccuracy final : public Workload
{
  public:
    explicit PaperAccuracy(const Env &env)
        : Workload("paper-accuracy", env)
    {
        const std::pair<const char *, double> kKernels[] = {
            {"histogram", 1.0},
            {"sparse-matrix-vector-multiplication", 0.125},
            {"n-body", 0.5},
            {"dense-matrix-multiplication", 0.25},
            {"cholesky", 0.05},
            {"freqmine", 1.0}};
        std::vector<JobSpec> refs;
        std::vector<JobSpec> sampled;
        std::uint64_t k = 0;
        for (const auto &[kernel, instrScale] : kKernels) {
            const std::uint64_t seed = BatchRunner::jobSeed(kTraceSeed, k++);
            refs.push_back(
                makeJob(kernel, instrScale, seed, kHighPerf, nullptr));
            for (const Policy &p : policies())
                sampled.push_back(
                    makeJob(kernel, instrScale, seed, kHighPerf, &p));
        }
        // References are the long poles: they go first, so the
        // seeded order of the short sampled jobs barely moves the
        // makespan.
        const std::size_t nrefs = refs.size();
        refs.insert(refs.end(), sampled.begin(), sampled.end());
        permute(refs, nrefs, env.seed);
        plan_ = pinnedPlan(std::move(refs));
    }

    double nominalSeconds() const override { return 1.0; }

    CampaignRun
    campaign() override
    {
        ReportSink sink;
        const Clock::time_point t0 = Clock::now();
        runner_->run(plan_, sink);
        return finish(sink, t0, env_.threads);
    }

    std::map<std::string, std::uint64_t>
    oracleReferences() override
    {
        return {}; // the campaign runs its own references
    }

    ReplayInputs
    replayInputs() override
    {
        ReplayInputs in;
        in.plan = plan_;
        return in;
    }

  protected:
    /** Trace realization, memoized in the runner the campaign uses. */
    void
    prepare() override
    {
        harness::BatchOptions opt;
        opt.jobs = env_.threads;
        runner_ = std::make_unique<BatchRunner>(opt);
        for (const JobSpec &j : plan_.jobs)
            (void)runner_->resolveTrace(j);
    }

  private:
    std::unique_ptr<BatchRunner> runner_;
};

// ---------------------------------------------------------------------
// dse-sweep
// ---------------------------------------------------------------------

/**
 * All 19 kernels x {high-performance, low-power} x {lazy, periodic,
 * adaptive}, sampled only. Each kernel's pinned trace is sized to
 * ~1.2M instructions and shared by its six jobs. Every campaign gets
 * a fresh read-write result cache, so every job misses and stores.
 */
class DseSweep final : public Workload
{
  public:
    explicit DseSweep(const Env &env) : Workload("dse-sweep", env)
    {
        std::vector<JobSpec> jobs;
        std::uint64_t k = 0;
        for (const work::WorkloadInfo &w : work::allWorkloads()) {
            const double instrScale = normalizedInstrScale(w.name, 1.2e6);
            const std::uint64_t seed = BatchRunner::jobSeed(kTraceSeed, k++);
            for (const Arch *arch : {&kHighPerf, &kLowPower})
                for (const Policy &p : policies())
                    jobs.push_back(
                        makeJob(w.name, instrScale, seed, *arch, &p));
        }
        permute(jobs, 0, env.seed);
        plan_ = pinnedPlan(std::move(jobs));
    }

    CampaignRun
    campaign() override
    {
        harness::ResultCacheOptions copt;
        copt.dir = freshDir("dse-cache").string();
        CampaignRun run;
        {
            harness::ResultCache cache(copt);
            harness::BatchOptions opt;
            opt.jobs = env_.threads;
            opt.cache = &cache;
            run = runBatch(plan_, opt);
            run.cache = cache.stats();
        }
        fs::remove_all(copt.dir);
        return run;
    }

    CacheUse cacheUse() const override { return CacheUse::ColdStore; }
    double nominalSeconds() const override { return 0.66; }

    ReplayInputs
    replayInputs() override
    {
        harness::ResultCacheOptions copt;
        copt.dir = freshDir("dse-replay-cache").string();
        // Each replay arm stores: it gets a cache of its own, alive
        // as long as this workload.
        replayCaches_.push_back(std::make_unique<harness::ResultCache>(copt));
        ReplayInputs in;
        in.plan = plan_;
        in.cache = replayCaches_.back().get();
        return in;
    }

  private:
    std::vector<std::unique_ptr<harness::ResultCache>> replayCaches_;
};

// ---------------------------------------------------------------------
// campaign-rerun
// ---------------------------------------------------------------------

/**
 * 19 kernels x 8 replicas (pinned trace seeds, ~0.1M instructions
 * each) x 2 machines x 3 policies = 912 small sampled jobs, run as a
 * dispatch campaign with in-process runner threads over a fresh
 * spool, against a result cache set-up warmed with a cold
 * in-process run. Every job is a cache hit; nothing is simulated.
 */
class CampaignRerun final : public Workload
{
  public:
    static constexpr std::uint64_t kReplicas = 8;

    explicit CampaignRerun(const Env &env)
        : Workload("campaign-rerun", env)
    {
        std::vector<JobSpec> jobs;
        std::uint64_t k = 0;
        for (const work::WorkloadInfo &w : work::allWorkloads()) {
            const double instrScale = normalizedInstrScale(w.name, 1e5);
            for (std::uint64_t r = 0; r < kReplicas; ++r) {
                const std::uint64_t seed =
                    BatchRunner::jobSeed(kTraceSeed, 1000 * k + r);
                for (const Arch *arch : {&kHighPerf, &kLowPower})
                    for (const Policy &p : policies()) {
                        JobSpec j =
                            makeJob(w.name, instrScale, seed, *arch, &p);
                        j.label += "/r" + std::to_string(r);
                        jobs.push_back(std::move(j));
                    }
            }
            ++k;
        }
        permute(jobs, 0, env.seed);
        plan_ = pinnedPlan(std::move(jobs));
    }

    std::size_t
    workers() const override
    {
        return dispatchRunners(env_.threads);
    }

    CacheUse cacheUse() const override { return CacheUse::WarmHit; }
    double nominalSeconds() const override { return 0.26; }

    CampaignRun
    campaign() override
    {
        return runDispatch(plan_, cache_.get(), workers(),
                           freshDir("spool"));
    }

    ReplayInputs
    replayInputs() override
    {
        ReplayInputs in;
        in.plan = plan_;
        in.cache = cache_.get();
        return in;
    }

    harness::ResultCache *warmCache() override { return cache_.get(); }

  protected:
    /** Cache warm-up: one cold in-process run of the whole plan. */
    void
    prepare() override
    {
        cache_.reset();
        const fs::path dir = freshDir("rerun-cache");
        harness::ResultCacheOptions copt;
        copt.dir = dir.string();
        {
            harness::ResultCache cold(copt);
            harness::BatchOptions opt;
            opt.jobs = env_.threads;
            opt.cache = &cold;
            expectedReport_ =
                deterministicColumns(runBatch(plan_, opt).csv);
        }
        copt.mode = harness::CacheMode::ReadOnly;
        cache_ = std::make_unique<harness::ResultCache>(copt);
    }

  private:
    std::unique_ptr<harness::ResultCache> cache_;
};

// ---------------------------------------------------------------------
// checkpoint-slices
// ---------------------------------------------------------------------

/**
 * Four long sampled jobs ({cholesky, checkSparseLU} x {periodic,
 * adaptive}, thousands of tasks each). Set-up records warm-state
 * checkpoints at every sample boundary into a fresh store; the
 * campaign replays the same plan expanded into checkpoint slices
 * across the worker threads.
 */
class CheckpointSlices final : public Workload
{
  public:
    explicit CheckpointSlices(const Env &env)
        : Workload("checkpoint-slices", env)
    {
        const std::vector<Policy> all = policies();
        std::vector<JobSpec> jobs;
        std::uint64_t k = 0;
        for (const char *kernel : {"cholesky", "checkSparseLU"}) {
            const std::uint64_t seed = BatchRunner::jobSeed(kTraceSeed, k++);
            for (const Policy *p : {&all[1], &all[2]})
                jobs.push_back(makeJob(kernel, 0.1, seed, kHighPerf, p));
        }
        permute(jobs, 0, env.seed);
        plan_ = pinnedPlan(std::move(jobs));
    }

    double nominalSeconds() const override { return 0.26; }

    CampaignRun
    campaign() override
    {
        return runBatch(plan_, options());
    }

    ReplayInputs
    replayInputs() override
    {
        harness::CheckpointExpansion ex = harness::expandCheckpointSlices(
            plan_, *store_, static_cast<std::uint32_t>(env_.threads));
        ReplayInputs in;
        in.plan = std::move(ex.plan);
        in.checkpoints = store_.get();
        if (ex.expanded)
            in.groups = std::move(ex.groups);
        return in;
    }

  protected:
    /** Checkpoint pre-recording: one recording pass into a fresh store. */
    void
    prepare() override
    {
        store_.reset();
        store_ = harness::openCheckpointDir(freshDir("ckpt").string());
        expectedReport_ =
            deterministicColumns(runBatch(plan_, options()).csv);
    }

  private:
    harness::BatchOptions
    options() const
    {
        harness::BatchOptions opt;
        opt.jobs = env_.threads;
        opt.checkpoints = store_.get();
        return opt;
    }

    std::unique_ptr<harness::ResultCache> store_;
};

} // namespace

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

Workload::Workload(std::string name, Env env)
    : name_(std::move(name)), env_(std::move(env))
{
}

Workload::~Workload() = default;

void
Workload::setup()
{
    prepare();
    // The instruction-count oracle: one realization per trace source.
    std::map<std::string, std::uint64_t> totals;
    expected_.clear();
    for (const JobSpec &j : plan_.jobs) {
        const std::string key = sourceKey(j);
        auto it = totals.find(key);
        if (it == totals.end())
            it = totals
                     .emplace(key, work::generateWorkload(
                                       j.workload, j.workloadParams)
                                       .totalInstructions())
                     .first;
        expected_.push_back(it->second);
    }
}

std::uint64_t
Workload::expectedInsts(std::size_t i) const
{
    return i < expected_.size() ? expected_[i] : 0;
}

std::map<std::string, std::uint64_t>
Workload::oracleReferences()
{
    std::map<std::string, JobSpec> unique;
    for (const JobSpec &j : plan_.jobs) {
        if (j.mode == BatchMode::Reference)
            continue;
        JobSpec ref = j;
        ref.mode = BatchMode::Reference;
        ref.sampling = {};
        ref.label = referenceKey(j);
        unique.emplace(ref.label, std::move(ref));
    }
    std::vector<JobSpec> jobs;
    for (auto &[key, job] : unique)
        jobs.push_back(std::move(job));
    harness::BatchOptions opt;
    opt.jobs = env_.threads;
    std::map<std::string, std::uint64_t> cycles;
    for (const harness::BatchResult &r :
         BatchRunner(opt).run(pinnedPlan(std::move(jobs))))
        cycles[r.label] = r.reference->totalCycles;
    return cycles;
}

CampaignRun
runBatch(const ExperimentPlan &plan, const harness::BatchOptions &options)
{
    ReportSink sink;
    const BatchRunner runner(options);
    const Clock::time_point t0 = Clock::now();
    runner.run(plan, sink);
    return finish(sink, t0, options.jobs);
}

std::size_t
dispatchRunners(std::size_t threads)
{
    return std::max<std::size_t>(threads, 2) - 1;
}

CampaignRun
runDispatch(const ExperimentPlan &plan, harness::ResultCache *cache,
            std::size_t runners, const fs::path &spool)
{
    harness::DispatchOptions dopt;
    dopt.spoolDir = spool.string();
    dopt.shards = static_cast<std::uint32_t>(4 * runners);
    // A runner's start-up (createSpool, then its claim directory)
    // calls fatal() when a directory flickers under it: when another
    // runner creates the same spool directory at the same moment
    // (EEXIST), or when the coordinator's spool reset removes
    // claimed/ (ENOENT). In a runner thread that aborts the process.
    // So lay the spool out first, and submit the plan only once every
    // runner has passed start-up (its heartbeat file exists).
    const harness::SpoolPaths paths(dopt.spoolDir);
    harness::createSpool(paths);
    const harness::ResultCacheStats before =
        cache != nullptr ? cache->stats() : harness::ResultCacheStats{};
    std::vector<std::thread> threads;
    std::vector<std::string> heartbeats;
    for (std::size_t i = 0; i < runners; ++i) {
        harness::DispatchRunnerOptions ro;
        ro.spoolDir = dopt.spoolDir;
        ro.runnerId = "bench-" + std::to_string(i);
        ro.batch.jobs = 1;
        ro.batch.cache = cache;
        heartbeats.push_back(paths.heartbeatFile(ro.runnerId));
        threads.emplace_back([ro] { (void)harness::runDispatchRunner(ro); });
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(10);
    for (const std::string &hb : heartbeats)
        while (!fs::exists(hb) && Clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ReportSink sink;
    const Clock::time_point t0 = Clock::now();
    try {
        harness::runDispatchCampaign(plan, dopt, sink);
    } catch (...) {
        // A failed campaign writes the stop file: runners exit.
        for (std::thread &t : threads)
            t.join();
        throw;
    }
    CampaignRun run = finish(sink, t0, runners);
    for (std::thread &t : threads)
        t.join();
    if (cache != nullptr)
        run.cache = minus(cache->stats(), before);
    fs::remove_all(spool);
    return run;
}

fs::path
Workload::freshDir(const std::string &tag)
{
    const fs::path dir =
        env_.work / (tag + "-" + std::to_string(dirCounter_++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
sourceKey(const JobSpec &job)
{
    const work::WorkloadParams &p = job.workloadParams;
    return job.workload + strprintf("/%llx/%a/%a",
                                    static_cast<unsigned long long>(p.seed),
                                    p.scale, p.instrScale);
}

std::string
referenceKey(const JobSpec &job)
{
    JobSpec j = job;
    j.label.clear();
    j.mode = BatchMode::Reference;
    j.sampling = {};
    return harness::jobSpecDigest(j);
}

std::string
deterministicColumns(const std::string &csv)
{
    // index,label,sampled_cycles,reference_cycles,error_pct,
    // detail_fraction | ref_cached,sam_cached,wall_speedup,host_seconds
    constexpr int kKept = 6;
    std::istringstream in(csv);
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
        int commas = 0;
        std::size_t cut = line.size();
        for (std::size_t i = 0; i < line.size(); ++i)
            if (line[i] == ',' && ++commas == kKept) {
                cut = i;
                break;
            }
        out.append(line, 0, cut);
        out += '\n';
    }
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-accuracy", "dse-sweep", "campaign-rerun",
        "checkpoint-slices"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Env &env)
{
    if (name == "paper-accuracy")
        return std::make_unique<PaperAccuracy>(env);
    if (name == "dse-sweep")
        return std::make_unique<DseSweep>(env);
    if (name == "campaign-rerun")
        return std::make_unique<CampaignRerun>(env);
    if (name == "checkpoint-slices")
        return std::make_unique<CheckpointSlices>(env);
    return nullptr;
}

} // namespace taskbench
