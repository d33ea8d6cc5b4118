/**
 * @file
 * The four benchmark workloads. Each is a closed batch: one plan,
 * submitted whole through a public harness entry point
 * (BatchRunner::run or runDispatchCampaign), timed from submission
 * to the last delivered report row.
 *
 * Trace content is pinned: every trace seed derives from
 * kTraceSeed, never from the benchmark seed. Sampling error is a
 * deterministic function of the trace, and across trace seeds it
 * varies far beyond any usable regression bound (freqmine alone
 * spans 0-254% at this size), so a seed-dependent trace set would
 * turn error_pct_* into seed noise. The benchmark seed instead
 * permutes each plan's submission order (and with it shard
 * composition, scheduling and report row order).
 */

#ifndef TASKBENCH_WORKLOADS_HH
#define TASKBENCH_WORKLOADS_HH

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/batch_runner.hh"
#include "harness/job_spec.hh"
#include "harness/plan_shard.hh"
#include "harness/result_cache.hh"
#include "harness/result_sink.hh"

namespace taskbench {

/** Base seed every pinned trace seed derives from. */
inline constexpr std::uint64_t kTraceSeed = 42;

/** Execution environment shared by all workloads. */
struct Env
{
    /** Worker threads (the host's hardware concurrency). */
    std::size_t threads = 1;
    /** Private scratch directory for caches, spools and stores. */
    std::filesystem::path work;
    /** Benchmark seed: permutes submission order. */
    std::uint64_t seed = 1;
};

/** One timed campaign. */
struct CampaignRun
{
    /** Host seconds from plan submission to the last report row. */
    double seconds = 0.0;
    /** Results in plan order. */
    std::vector<tp::harness::BatchResult> results;
    /** The CsvSink report of the campaign. */
    std::string csv;
    /** Cache counters of the campaign (zero when it used none). */
    tp::harness::ResultCacheStats cache;
    /** Threads executing jobs. */
    std::size_t workers = 1;
};

/** What the traced replay (layers.hh) needs to mirror a campaign. */
struct ReplayInputs
{
    /** Jobs in submission order, seeds resolved. */
    tp::harness::ExperimentPlan plan;
    /** Result cache the campaign consults; nullptr = cache off. */
    tp::harness::ResultCache *cache = nullptr;
    /** Checkpoint store slice jobs restore from; nullptr = none. */
    tp::harness::ResultCache *checkpoints = nullptr;
    /** Slice groups to merge (empty when nothing was sliced). */
    std::vector<tp::harness::SliceGroup> groups;
};

/** See file comment. */
class Workload
{
  public:
    Workload(std::string name, Env env);
    virtual ~Workload();
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    const std::string &name() const { return name_; }
    const Env &env() const { return env_; }
    /** The submitted plan (seeds resolved, seeded order). */
    const tp::harness::ExperimentPlan &plan() const { return plan_; }

    /**
     * Set-up work a user pays before the campaign: trace realization
     * for the instruction-count check, plus the workload's own
     * preparation (cache warm-up, checkpoint recording). Repeatable;
     * each call starts from scratch.
     */
    void setup();

    /** One timed campaign. */
    virtual CampaignRun campaign() = 0;

    /** @return expected detailed + fast instructions of job i. */
    std::uint64_t expectedInsts(std::size_t i) const;

    /**
     * Report a campaign must reproduce (CSV columns left of
     * ref_cached); empty when the workload has no such oracle.
     */
    const std::string &expectedReport() const { return expectedReport_; }

    /**
     * Reference cycles of every sampled job's trace and RunSpec,
     * keyed by referenceKey(), for workloads whose campaign does not
     * run the references itself. Computed once, untimed.
     */
    virtual std::map<std::string, std::uint64_t> oracleReferences();

    /** Fresh inputs for one traced replay of the campaign. */
    virtual ReplayInputs replayInputs() = 0;

    /** The cache the campaign runs against, warmed for reuse. */
    virtual tp::harness::ResultCache *warmCache() { return nullptr; }

    /** Threads the campaign executes jobs on. */
    virtual std::size_t workers() const { return env_.threads; }

    /**
     * Campaign seconds on the baseline machine (README.md). A run of
     * --seconds S makes max(3, S / nominalSeconds()) campaigns: a
     * fixed count, so the sample count behind every percentile is
     * the same in every run of one S.
     */
    virtual double nominalSeconds() const = 0;

    /** How the campaign uses its result cache. */
    enum class CacheUse { None, ColdStore, WarmHit };
    virtual CacheUse cacheUse() const { return CacheUse::None; }

    /** @return a fresh, empty directory under the work dir. */
    std::filesystem::path freshDir(const std::string &tag);

  protected:
    /** Workload-specific part of setup(). */
    virtual void prepare() {}

    std::string name_;
    Env env_;
    tp::harness::ExperimentPlan plan_;
    std::vector<std::uint64_t> expected_;
    std::string expectedReport_;

  private:
    std::uint64_t dirCounter_ = 0;
};

/** Run `plan` through BatchRunner::run into a CampaignRun. */
CampaignRun runBatch(const tp::harness::ExperimentPlan &plan,
                     const tp::harness::BatchOptions &options);

/**
 * Run `plan` through runDispatchCampaign over a fresh spool at
 * `spool` (removed afterwards), with `runners` in-process runner
 * threads of one job thread each, all consulting `cache`.
 */
CampaignRun runDispatch(const tp::harness::ExperimentPlan &plan,
                        tp::harness::ResultCache *cache,
                        std::size_t runners,
                        const std::filesystem::path &spool);

/** @return runner threads that fit beside the coordinator thread. */
std::size_t dispatchRunners(std::size_t threads);

/** @return the identity of a job's trace source (name + params). */
std::string sourceKey(const tp::harness::JobSpec &job);

/**
 * @return the identity of a job's simulated trace and machine: the
 *         job digest with label, mode and sampling policy cleared,
 *         shared by a sampled job and its detailed reference.
 */
std::string referenceKey(const tp::harness::JobSpec &job);

/** @return the deterministic CSV columns (left of ref_cached). */
std::string deterministicColumns(const std::string &csv);

/** @return the workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** @return the named workload, or nullptr when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Env &env);

} // namespace taskbench

#endif // TASKBENCH_WORKLOADS_HH
