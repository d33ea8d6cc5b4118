/**
 * @file
 * Distributed campaign coordination over a shared spool directory.
 *
 * The dispatch subsystem runs one ExperimentPlan across a fleet of
 * *runner* processes that need not be children of the driver — they
 * only have to see the same spool directory (a local path for
 * same-machine fleets, a shared filesystem for clusters). The
 * coordinator splits the plan into tasks, orders them with a cost
 * model, and publishes each as an ordinary plan file; runners
 * claim tasks by atomic rename, run them through the ordinary
 * BatchRunner, and append results to one envelope stream per task
 * (harness/worker); the coordinator live-tails every stream and
 * merges the results through a ResultMerger into any existing
 * ResultSink in plan submission order — the same sink contract
 * BatchRunner honours, so a distributed campaign's deterministic
 * report is byte-identical to `--jobs=1`. Every driver's `--workers=N` runs
 * its plan as a private campaign of this kind: a temp spool and N
 * locally spawned runners (see localCampaignFromCli).
 *
 * Spool layout (all under one root):
 *
 *   queue/<task>.tpplan       tasks awaiting a runner (plan files,
 *                             published by atomic rename)
 *   claimed/<runner>/<task>.tpplan
 *                             tasks a runner owns (claim = rename
 *                             out of queue/, atomic on one fs)
 *   done/<task>.tpplan        tasks a runner finished (best-effort
 *                             completion marker)
 *   results/<task>.tprs       the task's result stream, appended by
 *                             exactly one runner ever (task names are
 *                             generation-unique, see below)
 *   runners/<runner>.hb       heartbeat file, rewritten with a
 *                             counter every heartbeat interval
 *   stop                      created by the coordinator when the
 *                             campaign is over; runners exit on it
 *   timelines                 present while the campaign wants job
 *                             timelines: runners record and ship
 *                             them (BatchOptions::collectTimelines)
 *
 * Tasks are cut by trace source (cutTasks): the jobs naming one
 * workload instance or trace file go to one task, except where a
 * task boundary falls inside a source's group. A runner memoizes
 * traces per task (one BatchRunner each), so this realizes and
 * digests each trace about once per campaign; a cut by raw plan
 * position would repeat that in every task a permuted plan scatters
 * the source over. A plan whose sources are already contiguous — as
 * the figure drivers emit them — is cut by position. An interleaved
 * plan is regrouped in source-key order and its groups are dealt
 * round-robin over the tasks, so the sources of one workload, which
 * cost alike to realize, spread evenly over the tasks, and the tasks
 * do not depend on how the plan happens to be permuted.
 *
 * A task plan is self-contained: the coordinator applies the
 * campaign plan's seed policy to each job by its campaign-plan index
 * (BatchRunner::applyDerivedSeed) and publishes the resolved jobs
 * with seed derivation off, so any runner — or `replay_plan` — that
 * executes a task file computes exactly the results of those jobs in
 * an in-process run. Which campaign-plan index each task job has
 * lives only in the coordinator's memory; runners stream task-local
 * indices and the coordinator maps them back before merging.
 *
 * Task names are `task-pPPPP-gGG-sSSSS` (priority, steal generation,
 * task id), so a lexicographic scan of queue/ *is* the schedule:
 * the cost model ranks tasks longest-expected-cost first so the
 * likely stragglers start early.
 *
 * Fault handling. Every runner heartbeats; the coordinator tracks
 * heartbeat *change* against its own monotonic clock (no cross-host
 * clock comparison). A runner whose heartbeat stalls for deadAfter —
 * or whose locally spawned process exits early — is declared dead,
 * and the uncollected jobs of its claimed tasks are *stolen*
 * (likewise the missing jobs of a task a runner marked done whose
 * stream lacks some results, e.g. a torn final append):
 * re-split into fresh tasks of the next steal generation and
 * re-enqueued. The re-split tasks carry the already-resolved jobs,
 * so stolen work stays bit-identical. The dead runner's stream keeps
 * being tailed (a straggler mistaken for dead still contributes);
 * when thief and original both finish a job, the duplicates are
 * bit-identical by determinism and the ResultMerger keeps the first
 * arrival. A lineage that dies maxRetries times fails the campaign.
 * Orthogonally, a *stalled-stream watchdog* steals claimed tasks
 * whose result stream stops growing (stalledAfter) — the case of a
 * runner that wedges while its heartbeat thread keeps beating,
 * which heartbeat liveness can never catch.
 */

#ifndef TP_HARNESS_DISPATCH_HH
#define TP_HARNESS_DISPATCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/batch_runner.hh"
#include "harness/result_sink.hh"

namespace tp {
class CliArgs;
}

namespace tp::harness {

/** Parsed form of a spool task name (see file comment). */
struct DispatchTaskName
{
    /** Schedule rank; lower runs first. */
    std::uint32_t priority = 0;
    /** Steal generation: 0 = original, +1 per re-split. */
    std::uint32_t generation = 0;
    /** Campaign-unique task id (fresh per steal split). */
    std::uint32_t shardId = 0;
};

/** @return "task-pPPPP-gGG-sSSSS" (fields zero-padded, sortable). */
std::string formatTaskName(const DispatchTaskName &name);

/** @return the parsed task name, or std::nullopt for foreign files. */
std::optional<DispatchTaskName> parseTaskName(const std::string &s);

/** Canonical paths inside one spool directory. */
struct SpoolPaths
{
    explicit SpoolPaths(std::string root_dir);

    std::string root;
    std::string queue;
    std::string claimed;
    std::string done;
    std::string results;
    std::string runners;
    std::string stopFile;

    std::string queueFile(const std::string &task) const;
    std::string claimedDir(const std::string &runner) const;
    std::string claimedFile(const std::string &runner,
                            const std::string &task) const;
    std::string doneFile(const std::string &task) const;
    std::string streamFile(const std::string &task) const;
    std::string heartbeatFile(const std::string &runner) const;
};

/** Create every spool subdirectory; fatal when that fails. */
void createSpool(const SpoolPaths &spool);

/**
 * Cost-model estimate of one job's execution cost, in arbitrary
 * units comparable across jobs: expected dynamic work from the
 * self-describing JobSpec (the workload's Table I instance count ×
 * scale × instrScale), weighted by mode (a Reference run simulates
 * everything in detail; a Sampled run only a fraction) and divided
 * across checkpoint slices. Trace-file jobs, whose size the spec
 * does not describe, get a neutral constant.
 */
double expectedJobCost(const JobSpec &job);

/**
 * The coordinator's split of a campaign into tasks (see file
 * comment). `jobs` are the campaign plan's jobs with seeds already
 * resolved. A plan whose trace sources (traceSourceKey) are already
 * contiguous — including every derived-seed plan, whose sources are
 * all unique — is cut exactly as shardRange cuts it. Otherwise the
 * jobs are grouped by source, each group in plan order; the groups,
 * in key order, are dealt round-robin into `taskCount` lanes; and
 * the lanes, concatenated, are cut into `taskCount` pieces with
 * shardRange. The sources each task holds depend only on the set of
 * jobs, not on their order, and a source spans two tasks only where
 * a piece boundary falls inside its group.
 *
 * @return `taskCount` lists of campaign-plan indices (some possibly
 *         empty), each in the grouped order the task runs its jobs in
 */
std::vector<std::vector<std::size_t>>
cutTasks(const std::vector<JobSpec> &jobs, std::uint32_t taskCount);

/** Coordinator-side campaign options. */
struct DispatchOptions
{
    /**
     * Spool directory shared with the runners; empty creates (and
     * afterwards removes) a unique directory under the system temp
     * dir — only useful together with localRunners.
     */
    std::string spoolDir;
    /**
     * Tasks to split the plan into; 0 derives
     * max(localRunners, 1) * 2 — enough slack for the cost model
     * and stealing to matter. One result stream exists per task, so
     * a 10k-job sweep stays O(tasks) files.
     */
    std::uint32_t shards = 0;
    /** Steal/re-split rounds per task lineage (--max-retries). */
    std::size_t maxRetries = 3;
    /** Interval runners rewrite their heartbeat file at. */
    std::chrono::milliseconds heartbeatInterval{200};
    /** Heartbeat-stall span after which a runner is declared dead. */
    std::chrono::milliseconds deadAfter{2000};
    /**
     * Span after which a *claimed* task whose result stream has not
     * grown is declared stalled and its uncollected jobs stolen —
     * the net under a runner that wedges while its heartbeat thread
     * keeps beating, which heartbeat liveness can never catch. The
     * span doubles per steal generation so a genuinely slow lineage
     * does not burn its retry budget; a watchdog steal of a
     * merely-slow task is wasteful but safe (the original stream
     * stays tailed and bit-identical duplicates are dropped).
     * 0 derives max(30 * deadAfter, 60s); long-running jobs want
     * this raised (--stalled-after) rather than disabled.
     */
    std::chrono::milliseconds stalledAfter{0};
    /**
     * Runner processes to spawn on this machine (0 = none; external
     * runners join by pointing `taskpoint_dispatch --runner` at the
     * spool). Spawned runners that die are replaced while work
     * remains, within the lineage retry budget.
     */
    std::size_t localRunners = 0;
    /**
     * Binary spawned as a local runner; empty resolves
     * taskpoint_dispatch next to the running executable (for
     * taskpoint_dispatch itself: re-entering in runner mode).
     */
    std::string runnerBinary;
    /** --jobs forwarded to each local runner (threads per runner). */
    std::size_t jobsPerRunner = 1;
    /** Result-cache CLI forwarded to local runners. */
    std::string cacheDir;
    std::string cacheMode = "rw";
    /**
     * Warm-state checkpoint store (--checkpoint-dir); empty =
     * checkpoints off. When set, sampled jobs with recorded
     * checkpoints are expanded into per-interval slices *before*
     * the split into tasks, so one job's slices spread across the
     * fleet, and
     * the slice results are merged back (see harness/plan_shard.hh);
     * local runners get the directory forwarded — external runners
     * must be started with the same --checkpoint-dir. Expansion is
     * skipped under collectTimelines, like
     * BatchOptions::collectTimelines.
     */
    std::string checkpointDir;
    /** Emit one progress() line per campaign event. */
    bool progress = false;
    /** Keep a coordinator-created temp spool for post-mortems. */
    bool keepSpool = false;
    /**
     * Write the spool's `timelines` marker, so runners record job
     * timelines of every task (including steal re-splits) and ship
     * them back in the result streams, and a trace sink on the
     * coordinator merges the whole campaign into one Chrome trace
     * (see harness/trace_report.hh). Off removes the marker.
     */
    bool collectTimelines = false;
};

/**
 * Run `plan` as a distributed campaign (see file comment); blocks
 * until every job's result was merged into `sink` in submission
 * order. Same sink contract as BatchRunner::run; a failed campaign
 * (a lineage exhausting maxRetries, local runners dying faster than
 * they can be replaced) kills every local runner, writes the stop
 * file and raises SimError without sink.end() being called.
 */
void runDispatchCampaign(const ExperimentPlan &plan,
                         const DispatchOptions &options,
                         ResultSink &sink);

/**
 * The private local campaign behind the canonical `--workers=N|auto`
 * option (kWorkersOption): a temp spool with N local runners spawned
 * from `--worker-bin=PATH`, by default the taskpoint_dispatch binary
 * next to the running executable, one task per runner.
 * `--jobs` (threads per runner), `--max-retries`,
 * `--cache-dir`/`--cache`, `--checkpoint-dir` and the trace options'
 * "record timelines" bit are forwarded unchanged. The cache options
 * are validated here, through the parse resultCacheFromCli uses, so
 * a bad `--cache` fails before a single runner spawns.
 * localRunners == 0 (absent or `--workers=0`) means the caller runs
 * in-process.
 */
DispatchOptions localCampaignFromCli(const CliArgs &args);

/** Runner-side options. */
struct DispatchRunnerOptions
{
    /** Spool directory of the campaign (required). */
    std::string spoolDir;
    /** Fleet-unique identity; empty derives host+pid. */
    std::string runnerId;
    /** Interval the heartbeat file is rewritten at. */
    std::chrono::milliseconds heartbeatInterval{200};
    /** Emit one progress() line per claimed task. */
    bool progress = false;
    /**
     * Execution environment of claimed tasks (threads, caches); the
     * runner sets memoizeWorkloadTraces and collectTimelines per
     * task.
     */
    BatchOptions batch;
};

/**
 * The runner main loop: heartbeat, claim queued tasks in schedule
 * order, run each task plan through a BatchRunner into a
 * StreamPublishingSink on the task's result stream, move finished
 * tasks to done/, and exit once the stop file appears. Per task,
 * workload traces are memoized only when two of its jobs share one,
 * and timelines are recorded while the spool's `timelines` marker
 * exists.
 *
 * @return the number of tasks executed
 */
std::size_t runDispatchRunner(const DispatchRunnerOptions &options);

/**
 * Background thread rewriting `path` with a monotonically increasing
 * counter every `interval` — the liveness signal dead-runner
 * detection watches. Stops (and joins) on destruction.
 */
class HeartbeatWriter
{
  public:
    HeartbeatWriter(std::string path,
                    std::chrono::milliseconds interval);
    ~HeartbeatWriter();

    HeartbeatWriter(const HeartbeatWriter &) = delete;
    HeartbeatWriter &operator=(const HeartbeatWriter &) = delete;

  private:
    void loop();

    std::string path_;
    std::chrono::milliseconds interval_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace tp::harness

#endif // TP_HARNESS_DISPATCH_HH
