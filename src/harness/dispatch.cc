#include "harness/dispatch.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "common/backoff.hh"
#include "common/binary_io.hh"
#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/subprocess.hh"
#include "harness/plan_shard.hh"
#include "harness/result_cache.hh"
#include "harness/worker.hh"
#include "sim/result_io.hh"
#include "workloads/workloads.hh"

namespace fs = std::filesystem;

namespace tp::harness {

namespace {

const char *const kTaskSuffix = ".tpplan";
const char *const kStreamSuffix = ".tprs";

/**
 * Process-wide campaign counter for temp-spool names: two campaigns
 * in one process (or one after a failed cleanup) must never resolve
 * the same spool, or stale result streams of the earlier one would
 * be collected as current ones.
 */
std::atomic<std::uint64_t> g_spoolCounter{0};

/**
 * The taskpoint_dispatch binary next to the running executable (so
 * taskpoint_dispatch re-enters itself in runner mode, and drivers
 * and tests find the one built beside them); plain
 * "taskpoint_dispatch" (PATH lookup) when the running binary's
 * directory cannot be determined.
 */
std::string
defaultRunnerBinary()
{
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    if (ec || !self.has_parent_path())
        return "taskpoint_dispatch";
    return (self.parent_path() / "taskpoint_dispatch").string();
}

std::string
defaultRunnerId()
{
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) != 0)
        host[0] = '\0';
    return strprintf("%s-%d", host[0] != '\0' ? host : "host",
                     static_cast<int>(::getpid()));
}

/** The spool's `timelines` marker (see file comment of dispatch.hh). */
std::string
timelinesMarker(const SpoolPaths &spool)
{
    return (fs::path(spool.root) / "timelines").string();
}

/**
 * @return whether two workload jobs of `plan` realize the same trace
 *         (same workload name and parameter bits, the key BatchRunner
 *         memoizes traces by), i.e. whether memoizing workload traces
 *         can pay off. Tasks of a derived-seed plan carry unique
 *         seeds, so they never do.
 */
bool
sharesWorkloadTrace(const ExperimentPlan &plan)
{
    std::set<std::tuple<std::string, std::uint64_t, std::uint64_t,
                        std::uint64_t>>
        sources;
    for (const JobSpec &job : plan.jobs) {
        const work::WorkloadParams &p = job.workloadParams;
        if (!job.workload.empty() &&
            !sources
                 .emplace(job.workload,
                          std::bit_cast<std::uint64_t>(p.scale),
                          std::bit_cast<std::uint64_t>(p.instrScale),
                          p.seed)
                 .second)
            return true;
    }
    return false;
}

/** Read a small file whole; empty string when unreadable. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

std::string
formatTaskName(const DispatchTaskName &name)
{
    return strprintf("task-p%04u-g%02u-s%04u", name.priority,
                     name.generation, name.shardId);
}

std::optional<DispatchTaskName>
parseTaskName(const std::string &s)
{
    DispatchTaskName name;
    int consumed = 0;
    if (std::sscanf(s.c_str(), "task-p%u-g%u-s%u%n", &name.priority,
                    &name.generation, &name.shardId,
                    &consumed) != 3 ||
        static_cast<std::size_t>(consumed) != s.size())
        return std::nullopt;
    return name;
}

SpoolPaths::SpoolPaths(std::string root_dir)
    : root(std::move(root_dir)),
      queue((fs::path(root) / "queue").string()),
      claimed((fs::path(root) / "claimed").string()),
      done((fs::path(root) / "done").string()),
      results((fs::path(root) / "results").string()),
      runners((fs::path(root) / "runners").string()),
      stopFile((fs::path(root) / "stop").string())
{
}

std::string
SpoolPaths::queueFile(const std::string &task) const
{
    return (fs::path(queue) / (task + kTaskSuffix)).string();
}

std::string
SpoolPaths::claimedDir(const std::string &runner) const
{
    return (fs::path(claimed) / runner).string();
}

std::string
SpoolPaths::claimedFile(const std::string &runner,
                        const std::string &task) const
{
    return (fs::path(claimedDir(runner)) / (task + kTaskSuffix))
        .string();
}

std::string
SpoolPaths::doneFile(const std::string &task) const
{
    return (fs::path(done) / (task + kTaskSuffix)).string();
}

std::string
SpoolPaths::streamFile(const std::string &task) const
{
    return (fs::path(results) / (task + kStreamSuffix)).string();
}

std::string
SpoolPaths::heartbeatFile(const std::string &runner) const
{
    return (fs::path(runners) / (runner + ".hb")).string();
}

void
createSpool(const SpoolPaths &spool)
{
    for (const std::string *dir :
         {&spool.queue, &spool.claimed, &spool.done, &spool.results,
          &spool.runners}) {
        std::error_code ec;
        fs::create_directories(*dir, ec);
        if (ec)
            fatal("dispatch: cannot create spool directory '%s': %s",
                  dir->c_str(), ec.message().c_str());
    }
}

double
expectedJobCost(const JobSpec &job)
{
    // Expected dynamic work, in task-instance units. A trace-file
    // job's size is not in the spec; a neutral constant keeps it in
    // the middle of the schedule.
    double instances = 1e3;
    if (!job.workload.empty()) {
        if (const work::WorkloadInfo *info =
                work::findWorkload(job.workload))
            instances = static_cast<double>(info->paperInstances);
        instances *= job.workloadParams.scale;
    }
    double cost = instances * (job.workload.empty()
                                   ? 1.0
                                   : job.workloadParams.instrScale);
    // Mode weight: a Reference run simulates everything in detail; a
    // sampled run details only the sampled instances and fast-
    // forwards the rest; Both runs both.
    switch (job.mode) {
      case BatchMode::Sampled:
        cost *= 0.25;
        break;
      case BatchMode::Reference:
        break;
      case BatchMode::Both:
        cost *= 1.25;
        break;
    }
    if (job.isSlice() && job.sliceCount > 1)
        cost /= static_cast<double>(job.sliceCount);
    return cost;
}

HeartbeatWriter::HeartbeatWriter(std::string path,
                                 std::chrono::milliseconds interval)
    : path_(std::move(path)), interval_(interval),
      thread_([this] { loop(); })
{
}

HeartbeatWriter::~HeartbeatWriter()
{
    stop_.store(true);
    thread_.join();
}

void
HeartbeatWriter::loop()
{
    std::uint64_t counter = 0;
    while (true) {
        // Injected errno loses this beat (one write that never hit
        // the disk); delay stalls the writer thread so the content
        // stops changing — the coordinator's dead-runner case.
        bool skipBeat = false;
        if (const fault::FaultRule *r =
                FAULT_CHECK("dispatch.heartbeat"))
            skipBeat =
                r->action.kind == fault::FaultKind::ErrnoFault;
        if (!skipBeat) {
            // Rewriting in place is enough: the watcher only looks
            // for *changed* content, so even a torn read counts as
            // liveness — which it is.
            std::ofstream out(path_, std::ios::trunc);
            out << counter++;
        }
        // Sleep in small slices so destruction never waits a whole
        // interval behind a long heartbeat period.
        auto remaining = interval_;
        while (remaining.count() > 0 && !stop_.load()) {
            const auto step =
                std::min(remaining, std::chrono::milliseconds(10));
            std::this_thread::sleep_for(step);
            remaining -= step;
        }
        if (stop_.load())
            break;
    }
}

std::size_t
runDispatchRunner(const DispatchRunnerOptions &options)
{
    if (options.spoolDir.empty())
        fatal("dispatch runner: a spool directory is required");
    SpoolPaths spool(options.spoolDir);
    const std::string id = options.runnerId.empty()
                               ? defaultRunnerId()
                               : options.runnerId;
    // Only the heartbeat directory, which no coordinator ever
    // resets, is created up front. A runner may join before its
    // coordinator (cluster schedulers start jobs in any order) or
    // while one starts up and wipes queue/, claimed/, done/ and
    // results/; the claim loop re-creates what it writes into right
    // before using it.
    std::error_code ec;
    fs::create_directories(spool.runners, ec);

    HeartbeatWriter heartbeat(spool.heartbeatFile(id),
                              options.heartbeatInterval);
    PollBackoff idle(std::chrono::milliseconds(2),
                     std::chrono::milliseconds(200));
    std::size_t executed = 0;
    while (true) {
        if (fs::exists(spool.stopFile, ec))
            break;

        // Scan the queue in lexicographic = schedule order and claim
        // the first task we win the rename race on.
        std::vector<std::string> queued;
        for (const auto &entry :
             fs::directory_iterator(spool.queue, ec)) {
            const std::string task = entry.path().stem().string();
            if (entry.path().extension() == kTaskSuffix &&
                parseTaskName(task))
                queued.push_back(task);
        }
        std::sort(queued.begin(), queued.end());

        bool ran = false;
        for (const std::string &task : queued) {
            const std::string claim = spool.claimedFile(id, task);
            std::error_code rec;
            // An injected errno simulates losing the claim race;
            // abort/delay kill or wedge the runner at the moment it
            // owns no task yet.
            if (const fault::FaultRule *r =
                    FAULT_CHECK("dispatch.claim"))
                if (r->action.kind == fault::FaultKind::ErrnoFault)
                    continue;
            // A coordinator starting after us wipes claimed/ to
            // clear the previous campaign; re-ensure our directory
            // so the claim rename has a target.
            fs::create_directories(spool.claimedDir(id), rec);
            fs::rename(spool.queueFile(task), claim, rec);
            if (rec)
                continue; // lost the race; try the next task
            if (options.progress)
                progress(strprintf("runner %s: claimed %s",
                                   id.c_str(), task.c_str()));
            // A damaged task file throws IoError and ends the
            // runner; the coordinator then steals the claimed work.
            const ExperimentPlan taskPlan = deserializePlan(claim);
            fs::create_directories(spool.results, rec);
            if (rec)
                fatal("dispatch runner: cannot create '%s': %s",
                      spool.results.c_str(), rec.message().c_str());
            BatchOptions batch = options.batch;
            batch.memoizeWorkloadTraces = sharesWorkloadTrace(taskPlan);
            batch.collectTimelines =
                fs::exists(timelinesMarker(spool), rec);
            StreamPublishingSink publish(spool.streamFile(task));
            BatchRunner(batch).run(taskPlan, publish);
            fs::rename(claim, spool.doneFile(task), rec);
            ++executed;
            ran = true;
            // Rescan from the top: a stolen task published while we
            // worked may outrank everything still queued.
            break;
        }
        if (ran)
            idle.reset();
        else
            idle.sleep();
    }
    return executed;
}

namespace {

/** Coordinator-side state of one published task. */
struct TaskState
{
    /** Campaign-plan index of each task job, ascending. */
    std::vector<std::size_t> planIndices;
    DispatchTaskName name;
    /** Tails results/<task>.tprs (single writer, see file comment). */
    std::unique_ptr<sim::EnvelopeStreamReader> reader;
    /** Stream corrupt: stop tailing (remaining jobs were stolen). */
    bool failed = false;
    /** Remaining jobs were re-split; never steal a task twice. */
    bool stolen = false;
    /** Seen in some runner's claimed/ directory. */
    bool claimed = false;
    /** Seen in done/ before a tail pass over the stream started. */
    bool markedDone = false;
    /**
     * Tailed once after markedDone: the runner flushed every append
     * before marking the task done, so the stream is final.
     */
    bool drained = false;
    /**
     * Last observed forward motion: publish, first sighting of the
     * claim, or results arriving on the stream. Drives the
     * stalled-stream watchdog.
     */
    std::chrono::steady_clock::time_point lastProgress;
};

/** Liveness tracking of one observed runner. */
struct RunnerTrack
{
    std::string lastBeat;
    std::chrono::steady_clock::time_point lastChange;
    bool dead = false;
};

/** One locally spawned runner process. */
struct LocalRunner
{
    std::string id;
    Subprocess process;
    bool exited = false;
};

/** runDispatchCampaign() after validation and slice expansion. */
void
runCampaign(const ExperimentPlan &plan, const DispatchOptions &options,
            ResultSink &sink)
{
    const bool ownSpool = options.spoolDir.empty();
    std::string root = options.spoolDir;
    if (root.empty())
        root = (fs::temp_directory_path() /
                strprintf("tp-dispatch-%d-%llu",
                          static_cast<int>(::getpid()),
                          static_cast<unsigned long long>(
                              g_spoolCounter.fetch_add(1))))
                   .string();
    SpoolPaths spool(root);
    // The spool is this campaign's working state: leftovers of an
    // earlier campaign (above all old result streams, whose task
    // names could collide) must not leak into this one. Runners may
    // already be waiting — they tolerate the directories flickering.
    for (const std::string *dir :
         {&spool.queue, &spool.claimed, &spool.done, &spool.results}) {
        std::error_code ec;
        fs::remove_all(*dir, ec);
    }
    {
        std::error_code ec;
        fs::remove(spool.stopFile, ec);
        fs::remove(timelinesMarker(spool), ec);
    }
    createSpool(spool);
    if (options.collectTimelines)
        std::ofstream(timelinesMarker(spool)) << "timelines\n";

    // --- Cost-model schedule -------------------------------------
    const std::uint32_t taskCount =
        options.shards != 0
            ? options.shards
            : static_cast<std::uint32_t>(
                  std::max<std::size_t>(options.localRunners, 1) * 2);
    struct Part
    {
        std::uint32_t id;
        double cost;
        std::vector<std::size_t> planIndices;
    };
    std::vector<Part> parts;
    for (std::uint32_t i = 0; i < taskCount; ++i) {
        const auto [first, last] =
            shardRange(plan.jobs.size(), i, taskCount);
        if (first == last)
            continue;
        Part part{i, 0.0, {}};
        for (std::size_t j = first; j < last; ++j) {
            part.cost += expectedJobCost(plan.jobs[j]);
            part.planIndices.push_back(j);
        }
        parts.push_back(std::move(part));
    }
    // Longest-expected-cost first so the likely stragglers start
    // earliest.
    std::stable_sort(parts.begin(), parts.end(),
                     [](const Part &a, const Part &b) {
                         return a.cost > b.cost;
                     });

    // Seeds are resolved once, by campaign-plan index, and every task
    // — steal re-splits included — publishes its jobs from here with
    // derivation off, so it runs exactly the jobs of an in-process
    // run.
    std::vector<JobSpec> resolved = plan.jobs;
    if (plan.deriveSeeds)
        for (std::size_t i = 0; i < resolved.size(); ++i)
            BatchRunner::applyDerivedSeed(resolved[i], plan.baseSeed,
                                          i);

    std::map<std::string, TaskState> tasks;
    std::uint32_t nextTaskId = taskCount;

    const auto publishTask = [&](std::vector<std::size_t> planIndices,
                                 DispatchTaskName name) {
        const std::string task = formatTaskName(name);
        ExperimentPlan taskPlan;
        taskPlan.deriveSeeds = false;
        for (std::size_t i : planIndices)
            taskPlan.jobs.push_back(resolved[i]);
        // Publish by rename so a runner can never claim (and then
        // parse) a half-written task file.
        const std::string tmp =
            (fs::path(spool.root) / (task + ".tmp")).string();
        serializePlan(taskPlan, tmp);
        // Injected errno fails the publish like a real rename error
        // below (the coordinator has no quieter degradation); data
        // faults damage the task file, so the claiming runner must
        // die parsing it and the dead-runner steal re-publishes.
        if (const fault::FaultRule *r =
                FAULT_CHECK("dispatch.publish")) {
            if (r->action.kind == fault::FaultKind::ErrnoFault)
                fatal("dispatch: injected %s publishing task '%s' "
                      "(fault site dispatch.publish)",
                      fault::errnoToken(r->action.arg).c_str(),
                      task.c_str());
            fault::corruptFile(*r, tmp);
        }
        std::error_code ec;
        fs::rename(tmp, spool.queueFile(task), ec);
        if (ec)
            fatal("dispatch: cannot publish task '%s': %s",
                  task.c_str(), ec.message().c_str());
        TaskState st;
        st.planIndices = std::move(planIndices);
        st.name = name;
        st.reader = std::make_unique<sim::EnvelopeStreamReader>(
            spool.streamFile(task));
        st.lastProgress = std::chrono::steady_clock::now();
        tasks.emplace(task, std::move(st));
    };

    for (std::size_t rank = 0; rank < parts.size(); ++rank)
        publishTask(std::move(parts[rank].planIndices),
                    {static_cast<std::uint32_t>(rank), 0,
                     parts[rank].id});
    if (options.progress)
        progress(strprintf(
            "dispatch: %zu jobs in %zu tasks spooled at %s",
            plan.jobs.size(), tasks.size(), spool.root.c_str()));

    ResultMerger merger(sink, plan.jobs.size());

    // --- Local runner fleet --------------------------------------
    std::vector<LocalRunner> locals;
    std::size_t spawned = 0;
    const std::size_t spawnBudget =
        options.localRunners * (options.maxRetries + 1);
    // An empty plan publishes no task; spawning runners for it
    // would only cost their start-up.
    const std::size_t fleet = tasks.empty() ? 0 : options.localRunners;
    const std::string runnerBin = options.runnerBinary.empty()
                                      ? defaultRunnerBinary()
                                      : options.runnerBinary;
    const auto spawnRunner = [&]() {
        LocalRunner lr;
        lr.id = strprintf("local-%zu", spawned);
        std::vector<std::string> argv = {
            runnerBin, "--runner", "--spool=" + spool.root,
            "--runner-id=" + lr.id,
            strprintf("--heartbeat=%lld",
                      static_cast<long long>(
                          options.heartbeatInterval.count())),
            strprintf("--jobs=%zu", options.jobsPerRunner)};
        if (!options.cacheDir.empty()) {
            argv.push_back("--cache-dir=" + options.cacheDir);
            argv.push_back("--cache=" + options.cacheMode);
        }
        if (!options.checkpointDir.empty())
            argv.push_back("--checkpoint-dir=" + options.checkpointDir);
        SubprocessOptions so;
        so.stderrPath =
            (fs::path(spool.runners) / (lr.id + ".err")).string();
        lr.process = Subprocess::spawn(argv, so);
        ++spawned;
        if (options.progress)
            progress(strprintf("dispatch: runner %s -> pid %d",
                               lr.id.c_str(),
                               static_cast<int>(lr.process.pid())));
        locals.push_back(std::move(lr));
    };

    const auto shutdown = [&]() {
        std::ofstream(spool.stopFile) << "stop\n";
        // All results (or the failure) are in hand; a straggler
        // still chewing on a duplicated task has nothing to add.
        for (LocalRunner &lr : locals) {
            lr.process.kill();
            lr.process.wait();
        }
    };

    std::map<std::string, RunnerTrack> runnerTracks;

    const auto aliveRunners = [&]() {
        std::size_t alive = 0;
        for (const auto &[id, rt] : runnerTracks)
            if (!rt.dead)
                ++alive;
        for (const LocalRunner &lr : locals)
            if (!lr.exited && runnerTracks.count(lr.id) == 0)
                ++alive; // spawned, first heartbeat still pending
        return alive;
    };

    const auto stealTask = [&](TaskState &t, const char *why) {
        if (t.stolen)
            return;
        FAULT_POINT("dispatch.steal");
        t.stolen = true;
        std::vector<std::size_t> remaining;
        for (std::size_t i : t.planIndices)
            if (!merger.collected(i))
                remaining.push_back(i);
        if (remaining.empty())
            return;
        const std::uint32_t gen = t.name.generation + 1;
        if (gen >= options.maxRetries) {
            shutdown();
            fatal("dispatch: task %s lineage failed %zu times "
                  "(last: %s)",
                  formatTaskName(t.name).c_str(),
                  static_cast<std::size_t>(gen), why);
        }
        // Re-split across the surviving fleet. The pieces publish the
        // same resolved jobs, so stolen work stays bit-identical.
        const std::size_t pieces = std::min(
            remaining.size(), std::max<std::size_t>(
                                  static_cast<std::size_t>(1),
                                  aliveRunners()));
        for (std::size_t i = 0; i < pieces; ++i) {
            const auto [lo, hi] =
                shardRange(remaining.size(),
                           static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(pieces));
            publishTask({remaining.begin() +
                             static_cast<std::ptrdiff_t>(lo),
                         remaining.begin() +
                             static_cast<std::ptrdiff_t>(hi)},
                        {t.name.priority, gen, nextTaskId++});
        }
        warn("dispatch: stole %zu jobs from task %s into %zu "
             "gen-%u tasks (%s)",
             remaining.size(), formatTaskName(t.name).c_str(),
             pieces, gen, why);
    };

    // --- Main loop: tail, track liveness, steal ------------------
    PollBackoff backoff(std::chrono::milliseconds(1),
                        std::chrono::milliseconds(100));
    try {
        for (std::size_t i = 0; i < fleet; ++i)
            spawnRunner();
        while (!merger.complete()) {
            bool progressed = false;
            const auto now = std::chrono::steady_clock::now();

            // Done markers, read *before* the tail pass: a runner
            // flushes every append before it marks a task done, so
            // whatever a marked task's stream still lacks after this
            // pass was never published (a torn final append) and is
            // stolen instead of awaited.
            std::error_code ec;
            for (const auto &entry :
                 fs::directory_iterator(spool.done, ec)) {
                const auto it =
                    tasks.find(entry.path().stem().string());
                if (it != tasks.end())
                    it->second.markedDone = true;
            }

            for (auto &[task, t] : tasks) {
                if (t.failed || t.drained)
                    continue;
                const bool markedDone = t.markedDone;
                try {
                    std::vector<std::string> payloads;
                    t.reader->poll(payloads);
                    if (!payloads.empty())
                        t.lastProgress = now;
                    for (std::string &payload : payloads) {
                        std::istringstream ps(payload,
                                              std::ios::binary);
                        BatchResult r = deserializeBatchResult(
                            ps, t.reader->path());
                        // The stream's single writer executes this
                        // task, so every index must be one of its
                        // jobs; map it to the campaign plan's.
                        if (r.index >= t.planIndices.size())
                            throwIoError(
                                "'%s': result index %zu is not "
                                "one of the task's jobs",
                                t.reader->path().c_str(), r.index);
                        r.index = t.planIndices[r.index];
                        if (merger.offer(std::move(r)))
                            progressed = true;
                    }
                } catch (const IoError &e) {
                    // Definite corruption: this stream is not
                    // trustworthy past what was already verified.
                    t.failed = true;
                    stealTask(t, e.what());
                    progressed = true;
                    continue;
                }
                if (!markedDone)
                    continue;
                t.drained = true;
                if (std::any_of(t.planIndices.begin(),
                                t.planIndices.end(),
                                [&](std::size_t i) {
                                    return !merger.collected(i);
                                })) {
                    stealTask(t, "task done with results missing");
                    progressed = true;
                }
            }
            if (merger.complete())
                break;

            // Heartbeats: liveness is *content change* against our
            // own monotonic clock — no cross-host time comparison.
            for (const auto &entry :
                 fs::directory_iterator(spool.runners, ec)) {
                if (entry.path().extension() != ".hb")
                    continue;
                const std::string id =
                    entry.path().stem().string();
                const std::string beat =
                    slurp(entry.path().string());
                auto [it, inserted] =
                    runnerTracks.try_emplace(id);
                if (inserted) {
                    if (options.progress)
                        progress(strprintf(
                            "dispatch: runner %s joined",
                            id.c_str()));
                    it->second.lastBeat = beat;
                    it->second.lastChange = now;
                } else if (beat != it->second.lastBeat) {
                    it->second.lastBeat = beat;
                    it->second.lastChange = now;
                }
            }

            // Locally spawned runners also report through their
            // exit status — faster than a heartbeat timeout.
            for (LocalRunner &lr : locals) {
                if (lr.exited)
                    continue;
                if (const std::optional<ExitStatus> es =
                        lr.process.poll()) {
                    lr.exited = true;
                    RunnerTrack &rt = runnerTracks[lr.id];
                    if (!rt.dead) {
                        rt.dead = true;
                        warn("dispatch: runner %s died (%s)",
                             lr.id.c_str(),
                             es->describe().c_str());
                    }
                    progressed = true;
                }
            }

            // Death detection and stealing.
            for (auto &[id, rt] : runnerTracks) {
                const bool stale =
                    now - rt.lastChange > options.deadAfter;
                if (!rt.dead && stale) {
                    rt.dead = true;
                    warn("dispatch: runner %s heartbeat stalled; "
                         "declaring it dead",
                         id.c_str());
                }
                if (!rt.dead)
                    continue;
                // Steal every claimed, incomplete task once.
                for (const auto &entry : fs::directory_iterator(
                         spool.claimedDir(id), ec)) {
                    const std::string task =
                        entry.path().stem().string();
                    const auto it = tasks.find(task);
                    if (it == tasks.end() || it->second.stolen)
                        continue;
                    stealTask(it->second, "runner dead");
                    progressed = true;
                    std::error_code rec;
                    fs::remove(entry.path(), rec); // best effort
                }
            }

            // Stalled-stream watchdog. A runner can wedge with its
            // heartbeat thread still beating (a stuck job, a hung
            // filesystem write) — heartbeat liveness never trips,
            // and without this pass the coordinator would tail the
            // silent stream forever. A *claimed* task whose stream
            // has not grown within the stall span is routed into
            // the same steal path as a dead runner's work; the
            // original stream stays tailed, so if the slow runner
            // does finish, its bit-identical duplicates are simply
            // dropped by the merger.
            for (const auto &entry :
                 fs::directory_iterator(spool.claimed, ec)) {
                if (!entry.is_directory())
                    continue;
                std::error_code dec;
                for (const auto &claim :
                     fs::directory_iterator(entry.path(), dec)) {
                    const auto it =
                        tasks.find(claim.path().stem().string());
                    if (it == tasks.end() || it->second.claimed)
                        continue;
                    it->second.claimed = true;
                    it->second.lastProgress = now;
                }
            }
            const auto stallBase =
                options.stalledAfter.count() > 0
                    ? options.stalledAfter
                    : std::max(options.deadAfter * 30,
                               std::chrono::milliseconds(60000));
            for (auto &[task, t] : tasks) {
                if (!t.claimed || t.stolen || t.drained)
                    continue;
                // Doubling per generation keeps a genuinely slow
                // lineage from burning its whole retry budget on
                // watchdog steals.
                const auto span =
                    stallBase *
                    (1 << std::min(t.name.generation, 10u));
                if (now - t.lastProgress > span) {
                    stealTask(t, "result stream stalled");
                    progressed = true;
                }
            }

            // Keep the local fleet at strength while work remains.
            for (std::size_t i = 0; i < locals.size(); ++i) {
                if (!locals[i].exited)
                    continue;
                if (spawned < spawnBudget) {
                    locals[i].process.wait(); // reaped by poll()
                    spawnRunner();
                    locals.erase(locals.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                    --i;
                    progressed = true;
                }
            }
            if (options.localRunners > 0 && aliveRunners() == 0 &&
                spawned >= spawnBudget) {
                shutdown();
                fatal("dispatch: local runners keep dying (%zu "
                      "spawns) and none are left",
                      spawned);
            }

            if (progressed)
                backoff.reset();
            else
                backoff.sleep();
        }
    } catch (...) {
        shutdown();
        throw;
    }

    shutdown();
    merger.finish();
    if (options.progress)
        progress(strprintf(
            "dispatch: campaign complete: %zu jobs over %zu tasks, "
            "%zu runner spawns",
            merger.delivered(), tasks.size(), spawned));

    if (ownSpool && !options.keepSpool) {
        std::error_code rec;
        fs::remove_all(spool.root, rec); // best effort
    }
}

} // namespace

void
runDispatchCampaign(const ExperimentPlan &plan,
                    const DispatchOptions &options, ResultSink &sink)
{
    // Fail fast: a malformed plan must not spawn a single runner.
    validatePlanJobs(plan);
    if (options.spoolDir.empty() && options.localRunners == 0)
        fatal("dispatch: a temp spool without local runners can "
              "never make progress; pass a spool directory or a "
              "runner count");
    if (options.maxRetries == 0)
        fatal("dispatch: at least one attempt per lineage needed");

    // Live-points: expand sampled jobs with recorded checkpoints into
    // per-interval slices before the split into tasks, so one job's
    // slices spread across the fleet; the runners restore the
    // checkpoints and the merging sink reassembles the original
    // result stream.
    if (!options.checkpointDir.empty() && !options.collectTimelines) {
        const std::unique_ptr<ResultCache> checkpoints =
            openCheckpointDir(options.checkpointDir);
        const std::size_t lanes =
            std::max<std::size_t>(options.localRunners, 1) *
            std::max<std::size_t>(options.jobsPerRunner, 1);
        CheckpointExpansion ex = expandCheckpointSlices(
            plan, *checkpoints, static_cast<std::uint32_t>(lanes));
        if (ex.expanded) {
            if (options.progress)
                progress(strprintf("checkpoints: expanded %zu jobs "
                                   "into %zu slice jobs",
                                   plan.jobs.size(),
                                   ex.plan.jobs.size()));
            SliceMergingSink merging(sink, std::move(ex.groups));
            runCampaign(ex.plan, options, merging);
            return;
        }
    }
    runCampaign(plan, options, sink);
}

DispatchOptions
localCampaignFromCli(const CliArgs &args)
{
    DispatchOptions o;
    o.localRunners = workersFlag(args);
    // One task (and result stream) per runner keeps the spool small;
    // a dead runner's remainder is re-split across the survivors.
    o.shards = static_cast<std::uint32_t>(o.localRunners);
    o.runnerBinary = args.getString(kWorkerBinOption, "");
    o.jobsPerRunner = jobsFlag(args, 1);
    o.maxRetries = maxRetriesFlag(args, o.maxRetries);
    if (const std::optional<ResultCacheOptions> cache =
            resultCacheOptionsFromCli(args)) {
        o.cacheDir = cache->dir;
        o.cacheMode =
            cache->mode == CacheMode::ReadOnly ? "ro" : "rw";
    }
    o.checkpointDir = args.getString(kCheckpointDirOption, "");
    // Trace sinks live on the coordinator; the runners only need to
    // know they should record and ship timelines.
    o.collectTimelines =
        !args.getString(kTraceOutOption, "").empty() ||
        !args.getString(kTraceStatsOption, "").empty();
    o.progress = true;
    return o;
}

} // namespace tp::harness
