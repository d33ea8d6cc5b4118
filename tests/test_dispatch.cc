/**
 * @file
 * Tests of the distributed dispatch subsystem: spool task naming,
 * the live-tailed envelope stream reader (incomplete tails withheld,
 * corruption recoverable), duplicate-idempotent ordered merging,
 * poll backoff, the scheduling cost model, the `--workers` campaign
 * options, the source-grouped cut of a plan into tasks, in-process
 * coordinator/runner campaigns — with and without a dead runner
 * whose work must be stolen (also a non-contiguous remainder,
 * re-split with identical seeds, and a source-grouped remainder,
 * re-split without scattering its sources), over interleaved
 * sources, with runners racing the coordinator's start-up, with
 * runners slicing checkpointed jobs themselves, and with the
 * `timelines` marker —
 * and campaigns over spawned taskpoint_dispatch runner processes (a
 * runner SIGKILLed mid-stream, an unusable runner binary, checkpoint
 * slices).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.hh"
#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "harness/batch_runner.hh"
#include "harness/dispatch.hh"
#include "harness/plan_shard.hh"
#include "harness/result_cache.hh"
#include "harness/worker.hh"
#include "sim/result_io.hh"

namespace tp::harness {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

work::WorkloadParams
tinyScale()
{
    work::WorkloadParams p;
    p.scale = 0.02;
    p.seed = 42;
    return p;
}

ExperimentPlan
smallPlan(std::size_t n = 4)
{
    ExperimentPlan plan;
    plan.baseSeed = 17;
    for (std::size_t i = 0; i < n; ++i) {
        JobSpec j;
        j.label = "job " + std::to_string(i);
        j.workload = i % 2 == 0 ? "histogram" : "vector-operation";
        j.workloadParams = tinyScale();
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 8;
        j.sampling = sampling::SamplingParams::periodic(100);
        j.mode = BatchMode::Sampled;
        plan.jobs.push_back(j);
    }
    return plan;
}

/**
 * `sources` x `perSource` tiny sampled jobs with pinned seeds
 * (deriveSeeds off), so the jobs of one source share its trace.
 * Interleaved, job i names source i % sources — the shape of a
 * permuted sweep; otherwise each source's jobs are contiguous, as
 * the figure drivers emit them. Jobs of one source differ in their
 * thread count, and every label is unique.
 */
ExperimentPlan
sharedSourcePlan(std::size_t sources, std::size_t perSource,
                 bool interleaved)
{
    ExperimentPlan plan = smallPlan(sources * perSource);
    plan.deriveSeeds = false;
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        const std::size_t src =
            interleaved ? i % sources : i / perSource;
        const std::size_t rep =
            interleaved ? i / sources : i % perSource;
        JobSpec &j = plan.jobs[i];
        j.workload = src % 2 == 0 ? "histogram" : "vector-operation";
        j.workloadParams.seed = 42 + src;
        j.spec.threads = static_cast<std::uint32_t>(2 + 2 * rep);
        j.label = "src " + std::to_string(src) + " rep " +
                  std::to_string(rep);
    }
    return plan;
}

/**
 * @return the number of distinct (task, trace source) pairs of a
 *         cut: how many times a runner realizes and digests a trace.
 */
std::size_t
taskSourcePairs(const std::vector<JobSpec> &jobs,
                const std::vector<std::vector<std::size_t>> &tasks)
{
    std::size_t pairs = 0;
    for (const std::vector<std::size_t> &task : tasks) {
        std::set<std::string> sources;
        for (std::size_t i : task)
            sources.insert(traceSourceKey(jobs[i]));
        pairs += sources.size();
    }
    return pairs;
}

/** The cut of an n-job plan by raw plan position (shardRange). */
std::vector<std::vector<std::size_t>>
positionalCut(std::size_t n, std::uint32_t taskCount)
{
    std::vector<std::vector<std::size_t>> tasks(taskCount);
    for (std::uint32_t t = 0; t < taskCount; ++t) {
        const auto [first, last] = shardRange(n, t, taskCount);
        for (std::size_t i = first; i < last; ++i)
            tasks[t].push_back(i);
    }
    return tasks;
}

/** Every index of an n-job plan lands in exactly one task. */
void
expectPartition(const std::vector<std::vector<std::size_t>> &tasks,
                std::size_t n)
{
    std::vector<int> seen(n, 0);
    for (const std::vector<std::size_t> &task : tasks)
        for (std::size_t i : task) {
            ASSERT_LT(i, n);
            ++seen[i];
        }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(seen[i], 1) << "plan index " << i;
}

/**
 * The deterministic portion of the CSV report of `results`: every
 * column left of the host-timing pair (wall_speedup, host_seconds).
 */
std::string
deterministicCsv(const std::vector<BatchResult> &results)
{
    std::ostringstream out;
    {
        CsvSink csv(out);
        csv.begin(results.size());
        for (BatchResult r : results)
            csv.consume(std::move(r));
        csv.end();
    }
    std::istringstream in(out.str());
    std::string det;
    for (std::string line; std::getline(in, line);) {
        const std::size_t last = line.rfind(',');
        det += line.substr(0, line.rfind(',', last - 1)) + "\n";
    }
    return det;
}

/** Unique fresh directory under the test temp dir. */
fs::path
freshDir(const std::string &tag)
{
    const fs::path dir =
        fs::path(testing::TempDir()) /
        ("tp_dispatch_" + tag + "_" +
         std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * @return whether some steal generation >= 1 task of the campaign
 *         in `spoolDir` produced a result stream (work was stolen)
 */
bool
sawStolenStream(const std::string &spoolDir)
{
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(SpoolPaths(spoolDir).results, ec)) {
        const auto name = parseTaskName(entry.path().stem().string());
        if (name && name->generation > 0)
            return true;
    }
    return false;
}

TEST(DispatchTaskName, RoundTripsAndSortsBySchedule)
{
    const DispatchTaskName name{7, 2, 41};
    const std::string s = formatTaskName(name);
    EXPECT_EQ(s, "task-p0007-g02-s0041");
    const auto back = parseTaskName(s);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->priority, 7u);
    EXPECT_EQ(back->generation, 2u);
    EXPECT_EQ(back->shardId, 41u);

    // Lexicographic order of names == schedule order of priorities.
    EXPECT_LT(formatTaskName({3, 9, 99}), formatTaskName({10, 0, 0}));

    EXPECT_FALSE(parseTaskName("task-p0007-g02"));
    EXPECT_FALSE(parseTaskName("worker.err"));
    EXPECT_FALSE(parseTaskName("task-p0007-g02-s0041x"));
}

TEST(EnvelopeStream, MissingFileIsSimplyNotReadyYet)
{
    const fs::path dir = freshDir("absent");
    sim::EnvelopeStreamReader reader((dir / "none.tprs").string());
    std::vector<std::string> out;
    EXPECT_EQ(reader.poll(out), 0u);
    EXPECT_TRUE(out.empty());
}

TEST(EnvelopeStream, ConsumesAppendsAndWithholdsIncompleteTail)
{
    const fs::path dir = freshDir("stream");
    const std::string path = (dir / "s.tprs").string();
    sim::EnvelopeStreamReader reader(path);

    const auto append = [&](const std::string &payload) {
        std::ostringstream framed(std::ios::binary);
        sim::writeEnvelope(framed, payload);
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << framed.str();
        return framed.str();
    };

    append("first");
    std::vector<std::string> out;
    EXPECT_EQ(reader.poll(out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "first");

    // Two more envelopes, the second published byte by byte: the
    // incomplete tail must be withheld — never data, never an error.
    append("second");
    std::ostringstream framed(std::ios::binary);
    sim::writeEnvelope(framed, "third payload bytes");
    const std::string bytes = framed.str();
    for (std::size_t cut = 1; cut < bytes.size(); cut += 7) {
        std::ofstream partial(path, std::ios::binary);
        // Rewrite whole prefix each time to model arbitrary flush
        // points without append bookkeeping.
        std::ostringstream full(std::ios::binary);
        sim::writeEnvelope(full, "first");
        sim::writeEnvelope(full, "second");
        partial << full.str() << bytes.substr(0, cut);
    }
    out.clear();
    reader.poll(out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "second");

    {
        std::ofstream full(path, std::ios::binary);
        std::ostringstream all(std::ios::binary);
        sim::writeEnvelope(all, "first");
        sim::writeEnvelope(all, "second");
        sim::writeEnvelope(all, "third payload bytes");
        full << all.str();
    }
    out.clear();
    EXPECT_EQ(reader.poll(out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "third payload bytes");
}

TEST(EnvelopeStream, CorruptionAndShrinkRaiseIoError)
{
    const fs::path dir = freshDir("corrupt");
    const std::string path = (dir / "s.tprs").string();
    std::ostringstream framed(std::ios::binary);
    sim::writeEnvelope(framed, "checksummed payload bytes");
    const std::string good = framed.str();

    {
        // Flip one payload byte of a *complete* envelope.
        std::string bad = good;
        bad[bad.size() / 2] ^= 0x20;
        std::ofstream(path, std::ios::binary) << bad;
        sim::EnvelopeStreamReader reader(path);
        std::vector<std::string> out;
        EXPECT_THROW((void)reader.poll(out), IoError);
    }
    {
        // A stream that shrinks below the read offset means the
        // writer restarted — also definite corruption.
        std::ofstream(path, std::ios::binary) << good << good;
        sim::EnvelopeStreamReader reader(path);
        std::vector<std::string> out;
        EXPECT_EQ(reader.poll(out), 2u);
        std::ofstream(path, std::ios::binary) << good;
        out.clear();
        EXPECT_THROW((void)reader.poll(out), IoError);
    }
}

TEST(EnvelopeStream, LengthThatCanNeverFitRaisesIoError)
{
    const fs::path dir = freshDir("hugelen");
    const std::string path = (dir / "s.tprs").string();
    std::ostringstream framed(std::ios::binary);
    sim::writeEnvelope(framed, "payload");
    std::string bad = framed.str();
    // The length field follows magic(8) + version(4). This length
    // wraps a naive "header + len + trailer" completeness check.
    const std::uint64_t huge = UINT64_MAX - 8;
    std::memcpy(&bad[12], &huge, sizeof huge);
    std::ofstream(path, std::ios::binary) << bad;

    sim::EnvelopeStreamReader reader(path);
    std::vector<std::string> out;
    EXPECT_THROW((void)reader.poll(out), IoError);
    EXPECT_TRUE(out.empty());
}

TEST(EnvelopeStream, EverySingleBitFlipIsRejectedOrWithheld)
{
    const fs::path dir = freshDir("bitflip");
    const std::string path = (dir / "s.tprs").string();
    const std::string payload = "checksummed payload bytes";
    std::ostringstream framed(std::ios::binary);
    sim::writeEnvelope(framed, payload);
    const std::string good = framed.str();

    for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
        SCOPED_TRACE("bit " + std::to_string(bit));
        std::string bad = good;
        bad[bit / 8] =
            static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
        std::ofstream(path, std::ios::binary) << bad;
        sim::EnvelopeStreamReader reader(path);
        std::vector<std::string> out;
        try {
            reader.poll(out);
        } catch (const IoError &) {
            continue;
        }
        // Not rejected: the flip must read as an incomplete tail.
        EXPECT_TRUE(out.empty());
    }
}

TEST(ResultMergerTest, OrdersAndDropsDuplicates)
{
    CollectingSink sink;
    ResultMerger merger(sink, 3);

    const auto result = [](std::size_t index) {
        BatchResult r;
        r.index = index;
        r.label = "r" + std::to_string(index);
        return r;
    };

    EXPECT_TRUE(merger.offer(result(2)));
    EXPECT_EQ(merger.delivered(), 0u) << "2 must wait for 0 and 1";
    EXPECT_TRUE(merger.offer(result(0)));
    EXPECT_EQ(merger.delivered(), 1u);
    EXPECT_FALSE(merger.offer(result(0))) << "duplicate dropped";
    EXPECT_FALSE(merger.offer(result(2))) << "parked is seen too";
    EXPECT_TRUE(merger.collected(0));
    EXPECT_TRUE(merger.collected(2));
    EXPECT_FALSE(merger.collected(1));
    EXPECT_FALSE(merger.complete());
    EXPECT_THROW(merger.finish(), SimError)
        << "finish() before completion is a coordinator bug";
    EXPECT_TRUE(merger.offer(result(1)));
    EXPECT_TRUE(merger.complete());
    merger.finish();

    ASSERT_EQ(sink.results().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(sink.results()[i].index, i);
}

TEST(PollBackoffTest, DoublesToCapAndResets)
{
    PollBackoff b(milliseconds(2), milliseconds(10));
    EXPECT_EQ(b.current(), milliseconds(2));
    EXPECT_EQ(b.next(), milliseconds(2));
    EXPECT_EQ(b.next(), milliseconds(4));
    EXPECT_EQ(b.next(), milliseconds(8));
    EXPECT_EQ(b.next(), milliseconds(10)) << "bounded by max";
    EXPECT_EQ(b.next(), milliseconds(10));
    b.reset();
    EXPECT_EQ(b.current(), milliseconds(2));
}

TEST(PollBackoffTest, HoldsAtMinimumBeforeDoubling)
{
    PollBackoff b(milliseconds(1), milliseconds(4), 2);
    EXPECT_EQ(b.next(), milliseconds(1));
    EXPECT_EQ(b.next(), milliseconds(1));
    EXPECT_EQ(b.next(), milliseconds(1)) << "held twice, then doubles";
    EXPECT_EQ(b.next(), milliseconds(2));
    EXPECT_EQ(b.next(), milliseconds(4));
    EXPECT_EQ(b.next(), milliseconds(4));
    b.reset();
    EXPECT_EQ(b.next(), milliseconds(1)) << "reset restores the hold";
    EXPECT_EQ(b.next(), milliseconds(1));
    EXPECT_EQ(b.next(), milliseconds(1));
    EXPECT_EQ(b.next(), milliseconds(2));
}

TEST(DispatchCostModel, RanksModesAndSizesSensibly)
{
    JobSpec sampled;
    sampled.workload = "histogram";
    sampled.workloadParams = tinyScale();
    sampled.mode = BatchMode::Sampled;
    JobSpec reference = sampled;
    reference.mode = BatchMode::Reference;
    JobSpec both = sampled;
    both.mode = BatchMode::Both;

    EXPECT_LT(expectedJobCost(sampled), expectedJobCost(reference));
    EXPECT_LT(expectedJobCost(reference), expectedJobCost(both));

    JobSpec bigger = sampled;
    bigger.workloadParams.scale *= 4;
    EXPECT_LT(expectedJobCost(sampled), expectedJobCost(bigger));
}

TEST(DispatchCut, EveryPlanIndexLandsInExactlyOneTask)
{
    for (const bool interleaved : {false, true})
        for (const std::uint32_t tasks : {1u, 2u, 5u, 12u, 40u}) {
            SCOPED_TRACE(std::to_string(tasks) + " tasks");
            const ExperimentPlan plan =
                sharedSourcePlan(7, 3, interleaved);
            const auto cut = cutTasks(plan.jobs, tasks);
            ASSERT_EQ(cut.size(), tasks);
            expectPartition(cut, plan.jobs.size());
        }
}

TEST(DispatchCut, PermutedPlanKeepsEachSourceInOneTask)
{
    // campaign-rerun's shape: 152 sources x 6 jobs, permuted, cut
    // into 12 tasks. A task boundary can split at most one source's
    // group, so there are at most S + T - 1 (task, source) pairs; a
    // cut by plan position scatters a source over ~4.9 tasks.
    const std::size_t sources = 152;
    const std::uint32_t tasks = 12;
    ExperimentPlan plan = sharedSourcePlan(sources, 6, false);
    std::mt19937_64 rng(2016);
    std::shuffle(plan.jobs.begin(), plan.jobs.end(), rng);

    const auto cut = cutTasks(plan.jobs, tasks);
    const auto positional = positionalCut(plan.jobs.size(), tasks);
    expectPartition(cut, plan.jobs.size());
    EXPECT_LE(taskSourcePairs(plan.jobs, cut), sources + tasks - 1);
    for (std::uint32_t t = 0; t < tasks; ++t)
        EXPECT_EQ(cut[t].size(), positional[t].size()) << "task " << t;
    EXPECT_GT(taskSourcePairs(plan.jobs, positional), 3 * sources)
        << "the shuffle left the sources contiguous";
}

TEST(DispatchCut, ContiguousSourcesAreCutByPosition)
{
    // Same indices in the same order as shardRange, so the published
    // task files are byte-identical to a cut by position.
    const ExperimentPlan plan = sharedSourcePlan(5, 3, false);
    for (const std::uint32_t tasks : {1u, 2u, 3u, 4u, 7u, 15u, 20u})
        EXPECT_EQ(cutTasks(plan.jobs, tasks),
                  positionalCut(plan.jobs.size(), tasks))
            << tasks << " tasks";
}

TEST(DispatchCut, DerivedSeedPlanIsCutInPlanOrder)
{
    // Every job names one source before seed resolution; resolved by
    // plan index, every source is unique and the cut is positional.
    ExperimentPlan plan = sharedSourcePlan(1, 9, false);
    plan.deriveSeeds = true;
    std::vector<JobSpec> resolved = plan.jobs;
    for (std::size_t i = 0; i < resolved.size(); ++i)
        BatchRunner::applyDerivedSeed(resolved[i], plan.baseSeed, i);
    const auto cut = cutTasks(resolved, 4);
    std::size_t next = 0;
    for (const std::vector<std::size_t> &task : cut)
        for (std::size_t i : task)
            EXPECT_EQ(i, next++);
    EXPECT_EQ(next, resolved.size());
}

TEST(DispatchCut, TraceFileJobsGroupByPath)
{
    // A job naming a trace file keys on its path (nothing is read).
    std::vector<JobSpec> jobs(6);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].traceFile = i % 2 == 0 ? "a.tptrace" : "b.tptrace";
    jobs[5].traceFile.clear();
    jobs[5].workload = "histogram";
    jobs[5].workloadParams = tinyScale();

    // Interleaved, so the groups are dealt in key order: a.tptrace
    // and the workload to the first lane, b.tptrace to the second.
    const auto cut = cutTasks(jobs, 2);
    ASSERT_EQ(cut.size(), 2u);
    EXPECT_EQ(cut[0], (std::vector<std::size_t>{0, 2, 4}));
    EXPECT_EQ(cut[1], (std::vector<std::size_t>{5, 1, 3}));
}

TEST(DispatchCut, InterleavedCutDoesNotDependOnPlanOrder)
{
    // Two permutations of one sweep (19 sources x 6 jobs into 5
    // tasks, so some groups straddle a task boundary): every task
    // realizes the same sources either way, so how much work a task
    // holds does not depend on the order the plan lists its jobs in.
    const ExperimentPlan sweep = sharedSourcePlan(19, 6, false);
    const auto sourcesPerTask = [](std::uint64_t seed,
                                   const ExperimentPlan &plan) {
        std::vector<JobSpec> jobs = plan.jobs;
        std::mt19937_64 rng(seed);
        std::shuffle(jobs.begin(), jobs.end(), rng);
        std::vector<std::set<std::string>> out;
        for (const std::vector<std::size_t> &task : cutTasks(jobs, 5)) {
            std::set<std::string> sources;
            for (std::size_t i : task)
                sources.insert(traceSourceKey(jobs[i]));
            out.push_back(std::move(sources));
        }
        return out;
    };
    EXPECT_EQ(sourcesPerTask(1, sweep), sourcesPerTask(2, sweep));
    EXPECT_EQ(sourcesPerTask(1, sweep), sourcesPerTask(1000, sweep));
}

TEST(DispatchCut, InterleavedSourcesOfOneWorkloadSpreadOverTasks)
{
    // 4 workloads x 6 sources x 3 jobs, interleaved, into 4 tasks.
    // Sources of one workload cost alike to realize; dealt in key
    // order they land at most two per task, where grouping them by
    // plan position could put all six in one task.
    const std::vector<std::string> workloads = {
        "histogram", "vector-operation", "reduction", "canneal"};
    ExperimentPlan plan = smallPlan(4 * 6 * 3);
    plan.deriveSeeds = false;
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        const std::size_t src = i % 24;
        JobSpec &j = plan.jobs[i];
        j.workload = workloads[src / 6];
        j.workloadParams.seed = 42 + src;
        j.label = "src " + std::to_string(src) + " rep " +
                  std::to_string(i / 24);
    }
    const auto cut = cutTasks(plan.jobs, 4);
    expectPartition(cut, plan.jobs.size());
    for (std::size_t t = 0; t < cut.size(); ++t) {
        std::map<std::string, std::set<std::string>> perWorkload;
        for (std::size_t i : cut[t])
            perWorkload[plan.jobs[i].workload].insert(
                traceSourceKey(plan.jobs[i]));
        for (const auto &[workload, sources] : perWorkload)
            EXPECT_LE(sources.size(), 2u)
                << workload << " in task " << t;
    }
}

TEST(DispatchCli, MaxRetriesFlagParsesAndDefaults)
{
    const char *argv[] = {"prog", "--max-retries=7"};
    const CliArgs args(2, argv, {maxRetriesCliOption()});
    EXPECT_EQ(maxRetriesFlag(args), 7u);
    const char *none[] = {"prog"};
    const CliArgs noneArgs(1, none, {maxRetriesCliOption()});
    EXPECT_EQ(maxRetriesFlag(noneArgs), 3u);
    EXPECT_EQ(maxRetriesFlag(noneArgs, 5), 5u);
}

TEST(DispatchCli, WorkersFlagsBuildALocalCampaign)
{
    const std::vector<CliOption> options = {
        workersCliOption(),       workerBinCliOption(),
        jobsCliOption(),          maxRetriesCliOption(),
        cacheDirCliOption(),      cacheModeCliOption(),
        checkpointDirCliOption(), traceOutCliOption(),
        traceStatsCliOption()};
    const char *argv[] = {"prog",
                          "--workers=3",
                          "--worker-bin=/opt/runner",
                          "--jobs=2",
                          "--max-retries=5",
                          "--cache-dir=/tmp/c",
                          "--cache=ro",
                          "--checkpoint-dir=/tmp/k",
                          "--trace-out=/tmp/t.json"};
    const CliArgs args(9, argv, options);
    const DispatchOptions o = localCampaignFromCli(args);
    EXPECT_EQ(o.localRunners, 3u);
    EXPECT_EQ(o.shards, 3u) << "one shard task per runner";
    EXPECT_TRUE(o.spoolDir.empty()) << "a private temp spool";
    EXPECT_EQ(o.runnerBinary, "/opt/runner");
    EXPECT_EQ(o.jobsPerRunner, 2u);
    EXPECT_EQ(o.maxRetries, 5u);
    EXPECT_EQ(o.cacheDir, "/tmp/c");
    EXPECT_EQ(o.cacheMode, "ro");
    EXPECT_EQ(o.checkpointDir, "/tmp/k");
    EXPECT_TRUE(o.collectTimelines);

    const char *off[] = {"prog", "--workers=0", "--cache=off",
                         "--cache-dir=/tmp/c"};
    const DispatchOptions inProcess =
        localCampaignFromCli(CliArgs(4, off, options));
    EXPECT_EQ(inProcess.localRunners, 0u)
        << "--workers=0 must mean in-process";
    EXPECT_TRUE(inProcess.cacheDir.empty()) << "--cache=off wins";
    EXPECT_FALSE(inProcess.collectTimelines);
}

TEST(DispatchCli, WorkersRejectBadCacheFlagsBeforeSpawning)
{
    // The in-process path's resultCacheFromCli contract, enforced
    // before a single runner spawns.
    const std::vector<CliOption> options = {
        workersCliOption(), cacheDirCliOption(), cacheModeCliOption()};
    const auto expectCacheFlagError = [&](const char *cache,
                                          const char *dir) {
        SCOPED_TRACE(std::string(cache) + " " + dir);
        const char *argv[] = {"prog", "--workers=2", cache, dir};
        const CliArgs args(*dir != '\0' ? 4 : 3, argv, options);
        try {
            (void)localCampaignFromCli(args);
            ADD_FAILURE() << "expected a SimError";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("--cache"),
                      std::string::npos)
                << e.what();
        }
    };
    expectCacheFlagError("--cache=rw", "");
    expectCacheFlagError("--cache=bogus", "--cache-dir=/tmp/c");
}

TEST(DispatchRunner, ExitsOnStopFile)
{
    const fs::path spoolDir = freshDir("stopped");
    SpoolPaths spool(spoolDir.string());
    createSpool(spool);
    std::ofstream(spool.stopFile) << "stop\n";

    DispatchRunnerOptions ro;
    ro.spoolDir = spoolDir.string();
    ro.runnerId = "r0";
    ro.heartbeatInterval = milliseconds(20);
    EXPECT_EQ(runDispatchRunner(ro), 0u);
    fs::remove_all(spoolDir);
}

/**
 * In-process campaigns: coordinator and runners as plain threads
 * over one spool directory — the full protocol without spawning a
 * single binary.
 */
class DispatchE2E : public ::testing::Test
{
  protected:
    /**
     * Run the campaign on this thread, runners on `n` threads that
     * start together with it (nobody waits for their heartbeats).
     */
    std::vector<BatchResult>
    campaign(const ExperimentPlan &plan, DispatchOptions options,
             std::size_t n, const std::string &idPrefix = "thread-",
             const BatchOptions &batch = {})
    {
        std::vector<std::thread> runners;
        for (std::size_t i = 0; i < n; ++i) {
            DispatchRunnerOptions ro;
            ro.spoolDir = options.spoolDir;
            ro.runnerId = idPrefix + std::to_string(i);
            ro.heartbeatInterval = milliseconds(20);
            ro.batch = batch;
            runners.emplace_back(
                [ro] { (void)runDispatchRunner(ro); });
        }
        CollectingSink sink;
        std::exception_ptr failure;
        try {
            runDispatchCampaign(plan, options, sink);
        } catch (...) {
            failure = std::current_exception();
            // The campaign wrote the stop file on failure, so the
            // runner threads are already unwinding.
        }
        for (std::thread &t : runners)
            t.join();
        if (failure)
            std::rethrow_exception(failure);
        return sink.take();
    }

    void
    expectMatchesInProcess(const ExperimentPlan &plan,
                           const std::vector<BatchResult> &results)
    {
        const std::vector<BatchResult> reference =
            BatchRunner(BatchOptions{}).run(plan);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            SCOPED_TRACE(reference[i].label);
            EXPECT_EQ(results[i].index, i)
                << "campaign must deliver in submission order";
            EXPECT_EQ(results[i].label, reference[i].label);
            ASSERT_TRUE(results[i].sampled.has_value());
            EXPECT_EQ(results[i].sampled->result.totalCycles,
                      reference[i].sampled->result.totalCycles);
        }
    }
};

TEST_F(DispatchE2E, MatchesInProcessExecutionOrderedAndExact)
{
    const fs::path spoolDir = freshDir("e2e");
    const ExperimentPlan plan = smallPlan(5);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 3;
    options.heartbeatInterval = milliseconds(20);
    options.deadAfter = milliseconds(2000);

    expectMatchesInProcess(plan, campaign(plan, options, 2));
    fs::remove_all(spoolDir);
}

TEST_F(DispatchE2E, SourceGroupedTasksReportLikeOneThread)
{
    // Interleaved sources are regrouped into tasks, so each task runs
    // its jobs out of plan order; the merged report must still be
    // byte-identical to an in-process run on one thread.
    const fs::path spoolDir = freshDir("grouped");
    const ExperimentPlan plan = sharedSourcePlan(3, 3, true);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 2;
    options.heartbeatInterval = milliseconds(20);

    const std::vector<BatchResult> results = campaign(plan, options, 2);
    BatchOptions serial;
    serial.jobs = 1;
    EXPECT_EQ(deterministicCsv(results),
              deterministicCsv(BatchRunner(serial).run(plan)));
    expectMatchesInProcess(plan, results);
    fs::remove_all(spoolDir);
}

TEST_F(DispatchE2E, RunnersRacingCoordinatorStartUpNeverAbort)
{
    // Runner threads start at the very moment each coordinator wipes
    // the spool's queue/, claimed/, done/ and results/ directories.
    // A runner must never die of a directory vanishing under it
    // (that would abort this whole process), and every back-to-back
    // campaign over the one spool must match in-process execution.
    const fs::path spoolDir = freshDir("race");
    const SpoolPaths spool(spoolDir.string());
    const ExperimentPlan plan = smallPlan(4);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 2;
    options.heartbeatInterval = milliseconds(20);
    for (int round = 0; round < 6; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        // The previous campaign's stop file would end the new
        // runners before they claim anything.
        fs::remove(spool.stopFile);
        expectMatchesInProcess(
            plan, campaign(plan, options, 3,
                           "round" + std::to_string(round) + "-"));
    }
    fs::remove_all(spoolDir);
}

TEST_F(DispatchE2E, StealsFromDeadRunnerBitIdentically)
{
    const fs::path spoolDir = freshDir("steal");
    const ExperimentPlan plan = smallPlan(6);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 3;
    options.heartbeatInterval = milliseconds(20);
    options.deadAfter = milliseconds(250);
    options.keepSpool = true;

    SpoolPaths spool(spoolDir.string());

    // A zombie claims the schedule-first task and then never
    // heartbeats again: the coordinator must declare it dead and
    // re-split the claimed jobs — all of them, since the zombie
    // never publishes a single result.
    std::thread saboteur([&] {
        std::error_code ec;
        for (int tries = 0; tries < 2000; ++tries) {
            std::vector<std::string> queued;
            for (const auto &entry :
                 fs::directory_iterator(spool.queue, ec))
                if (parseTaskName(entry.path().stem().string()))
                    queued.push_back(entry.path().stem().string());
            if (!queued.empty()) {
                std::sort(queued.begin(), queued.end());
                fs::create_directories(spool.claimedDir("zombie"),
                                       ec);
                fs::rename(
                    spool.queueFile(queued.front()),
                    spool.claimedFile("zombie", queued.front()),
                    ec);
                if (!ec) {
                    std::ofstream(spool.heartbeatFile("zombie"))
                        << "0";
                    return;
                }
            }
            std::this_thread::sleep_for(milliseconds(1));
        }
    });

    const std::vector<BatchResult> results =
        campaign(plan, options, 2);
    saboteur.join();
    expectMatchesInProcess(plan, results);

    EXPECT_TRUE(sawStolenStream(spoolDir.string()))
        << "no generation-1 result stream: nothing was stolen";
    fs::remove_all(spoolDir);
}

TEST_F(DispatchE2E, ExhaustedLineageFailsTheCampaign)
{
    // Nobody ever executes anything; a permanently zombie-claimed
    // task must fail the campaign once its lineage runs out of
    // steal generations (maxRetries=1 → no re-split allowed).
    const fs::path spoolDir = freshDir("exhaust");
    const ExperimentPlan plan = smallPlan(2);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 1;
    options.maxRetries = 1;
    options.heartbeatInterval = milliseconds(20);
    options.deadAfter = milliseconds(150);

    SpoolPaths spool(spoolDir.string());
    std::thread saboteur([&] {
        std::error_code ec;
        for (int tries = 0; tries < 2000; ++tries) {
            std::vector<std::string> queued;
            for (const auto &entry :
                 fs::directory_iterator(spool.queue, ec))
                if (parseTaskName(entry.path().stem().string()))
                    queued.push_back(entry.path().stem().string());
            if (!queued.empty()) {
                fs::create_directories(spool.claimedDir("zombie"),
                                       ec);
                fs::rename(
                    spool.queueFile(queued.front()),
                    spool.claimedFile("zombie", queued.front()),
                    ec);
                if (!ec) {
                    std::ofstream(spool.heartbeatFile("zombie"))
                        << "0";
                    return;
                }
            }
            std::this_thread::sleep_for(milliseconds(1));
        }
    });

    EXPECT_THROW(campaign(plan, options, 0), SimError);
    saboteur.join();
    fs::remove_all(spoolDir);
}

TEST_F(DispatchE2E, RunnersSliceCheckpointedJobsThemselves)
{
    // A coordinator without a checkpoint store publishes whole jobs;
    // runners with two threads and a recorded store split them into
    // slices inside each task and fold the slices back, so the
    // campaign still streams exactly one result per job.
    const fs::path dir = freshDir("runner_slices");
    const ExperimentPlan plan = smallPlan(4);
    const std::unique_ptr<ResultCache> store =
        openCheckpointDir((dir / "ckpt").string());
    BatchOptions record;
    record.checkpoints = store.get();
    (void)BatchRunner(record).run(plan);
    ASSERT_TRUE(expandCheckpointSlices(plan, *store, 2).expanded)
        << "the recording run left nothing to slice";

    DispatchOptions options;
    options.spoolDir = (dir / "spool").string();
    options.shards = 2;
    options.heartbeatInterval = milliseconds(20);
    BatchOptions batch;
    batch.jobs = 2;
    batch.checkpoints = store.get();
    const std::uint64_t hitsBefore = store->stats().hits;
    expectMatchesInProcess(
        plan, campaign(plan, options, 2, "thread-", batch));
    // Each sliced job reads its manifest and restores the checkpoint
    // its second slice starts at.
    EXPECT_GE(store->stats().hits - hitsBefore, 2 * plan.jobs.size())
        << "the runners did not slice";
    fs::remove_all(dir);
}

TEST_F(DispatchE2E, RunnersShipTimelinesOnlyUnderTheMarker)
{
    // Two campaigns over one spool: the first writes the `timelines`
    // marker, so every result carries its job's timeline; the second
    // removes it in its spool reset, so none does.
    const fs::path spoolDir = freshDir("timelines");
    const SpoolPaths spool(spoolDir.string());
    const ExperimentPlan plan = smallPlan(3);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 2;
    options.heartbeatInterval = milliseconds(20);
    for (const bool timelines : {true, false}) {
        SCOPED_TRACE(timelines ? "marker" : "no marker");
        fs::remove(spool.stopFile);
        options.collectTimelines = timelines;
        const std::vector<BatchResult> results =
            campaign(plan, options, 2);
        expectMatchesInProcess(plan, results);
        EXPECT_EQ(fs::exists(spoolDir / "timelines"), timelines);
        for (const BatchResult &r : results)
            EXPECT_EQ(r.timeline.has_value(), timelines) << r.label;
    }
    fs::remove_all(spoolDir);
}

/** Campaigns whose stolen work is checked job by job. */
class DispatchSteal : public DispatchE2E
{};

TEST_F(DispatchSteal, ResplitResolvesIdenticalSeeds)
{
    // A zombie claims the only task, publishes the results of jobs
    // {0, 2, 5} and goes silent. The re-split must carry the
    // non-contiguous survivors {1, 3, 4} with exactly the seeds an
    // in-process run derives for them, and the campaign must still
    // match in-process execution.
    const fs::path spoolDir = freshDir("resplit");
    const SpoolPaths spool(spoolDir.string());
    const ExperimentPlan plan = smallPlan(6);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 1;
    options.heartbeatInterval = milliseconds(20);
    options.deadAfter = milliseconds(250);

    // Claims the queued task, publishes the results of jobs 0, 2 and
    // 5 before its first heartbeat (so they are merged before it is
    // declared dead), then beats once and stalls.
    const auto claimAndPublishSome = [&] {
        std::error_code ec;
        for (int tries = 0; tries < 2000; ++tries) {
            std::vector<std::string> queued;
            for (const auto &entry :
                 fs::directory_iterator(spool.queue, ec))
                if (parseTaskName(entry.path().stem().string()))
                    queued.push_back(entry.path().stem().string());
            if (queued.size() == 1) {
                const std::string &task = queued.front();
                const std::string claim =
                    spool.claimedFile("zombie", task);
                fs::create_directories(spool.claimedDir("zombie"),
                                       ec);
                fs::rename(spool.queueFile(task), claim, ec);
                ASSERT_FALSE(ec) << ec.message();
                StreamPublishingSink publish(spool.streamFile(task));
                FunctionSink some([&](BatchResult &&r) {
                    if (r.index == 0 || r.index == 2 || r.index == 5)
                        publish.consume(std::move(r));
                });
                BatchRunner(BatchOptions{}).run(deserializePlan(claim),
                                                some);
                std::ofstream(spool.heartbeatFile("zombie")) << "0";
                return;
            }
            std::this_thread::sleep_for(milliseconds(1));
        }
        ADD_FAILURE() << "the task was never published";
    };
    std::thread zombie([&] {
        claimAndPublishSome();
        // Only now does a healthy runner join, for the remainder.
        DispatchRunnerOptions ro;
        ro.spoolDir = spool.root;
        ro.runnerId = "thief";
        ro.heartbeatInterval = milliseconds(20);
        (void)runDispatchRunner(ro);
    });

    std::vector<BatchResult> results;
    EXPECT_NO_THROW(results = campaign(plan, options, 0));
    zombie.join();
    expectMatchesInProcess(plan, results);

    // The one generation-1 task holds jobs 1, 3 and 4, seeded as the
    // campaign plan derives them.
    std::vector<std::string> stolen;
    std::error_code ec;
    for (const fs::path &dir :
         {fs::path(spool.done), fs::path(spool.claimedDir("thief"))})
        for (const auto &entry : fs::directory_iterator(dir, ec)) {
            const auto name =
                parseTaskName(entry.path().stem().string());
            if (name && name->generation == 1)
                stolen.push_back(entry.path().string());
        }
    ASSERT_EQ(stolen.size(), 1u);
    const ExperimentPlan replay = deserializePlan(stolen[0]);
    EXPECT_FALSE(replay.deriveSeeds);
    ASSERT_EQ(replay.jobs.size(), 3u);
    std::size_t at = 0;
    for (std::size_t idx : {1u, 3u, 4u}) {
        JobSpec expected = plan.jobs[idx];
        BatchRunner::applyDerivedSeed(expected, plan.baseSeed, idx);
        EXPECT_EQ(jobSpecDigest(replay.jobs[at]),
                  jobSpecDigest(expected))
            << "job " << idx;
        ++at;
    }
    fs::remove_all(spoolDir);
}

TEST_F(DispatchSteal, ResplitKeepsEachSourceInOnePiece)
{
    // Three interleaved sources of four jobs in one task, so the task
    // lists its jobs grouped by source. A zombie claims it, publishes
    // two results and goes silent while three bystander runners keep
    // beating (they never claim); the ten remaining jobs are re-split
    // into one piece per live runner in the task's grouped order, so
    // a source spans two pieces only at a piece boundary: at most
    // S + P - 1 (piece, source) pairs. Only then does a thief join
    // to run the pieces.
    const std::size_t sources = 3;
    const fs::path spoolDir = freshDir("resplit_grouped");
    const SpoolPaths spool(spoolDir.string());
    const ExperimentPlan plan = sharedSourcePlan(sources, 4, true);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 1;
    options.heartbeatInterval = milliseconds(20);
    options.deadAfter = milliseconds(500);

    // The task's job order, and the plan jobs the zombie publishes.
    const std::vector<std::size_t> order = cutTasks(plan.jobs, 1)[0];
    const std::set<std::size_t> published = {order[0], order[5]};

    fs::create_directories(spool.runners);
    std::vector<std::unique_ptr<HeartbeatWriter>> bystanders;
    for (int i = 0; i < 3; ++i)
        bystanders.push_back(std::make_unique<HeartbeatWriter>(
            spool.heartbeatFile("idle-" + std::to_string(i)),
            milliseconds(20)));

    const auto queuedTasks = [&] {
        std::vector<DispatchTaskName> queued;
        std::error_code ec;
        for (const auto &entry :
             fs::directory_iterator(spool.queue, ec))
            if (const auto name =
                    parseTaskName(entry.path().stem().string()))
                queued.push_back(*name);
        return queued;
    };
    std::thread zombie([&] {
        std::error_code ec;
        bool claimed = false;
        for (int tries = 0; tries < 2000 && !claimed; ++tries) {
            const std::vector<DispatchTaskName> queued = queuedTasks();
            if (queued.size() != 1) {
                std::this_thread::sleep_for(milliseconds(1));
                continue;
            }
            const std::string task = formatTaskName(queued.front());
            const std::string claim = spool.claimedFile("zombie", task);
            fs::create_directories(spool.claimedDir("zombie"), ec);
            fs::rename(spool.queueFile(task), claim, ec);
            ASSERT_FALSE(ec) << ec.message();
            StreamPublishingSink publish(spool.streamFile(task));
            FunctionSink some([&](BatchResult &&r) {
                if (r.index == 0 || r.index == 5)
                    publish.consume(std::move(r));
            });
            BatchRunner(BatchOptions{}).run(deserializePlan(claim),
                                            some);
            std::ofstream(spool.heartbeatFile("zombie")) << "0";
            claimed = true;
        }
        EXPECT_TRUE(claimed) << "the task was never published";
        // The thief joins once the re-split is queued, so it does not
        // count as a live runner at the steal.
        for (int tries = 0; tries < 20000 && queuedTasks().empty();
             ++tries)
            std::this_thread::sleep_for(milliseconds(1));
        DispatchRunnerOptions ro;
        ro.spoolDir = spool.root;
        ro.runnerId = "thief";
        ro.heartbeatInterval = milliseconds(20);
        (void)runDispatchRunner(ro);
    });

    std::vector<BatchResult> results;
    EXPECT_NO_THROW(results = campaign(plan, options, 0));
    zombie.join();
    bystanders.clear();
    expectMatchesInProcess(plan, results);

    std::vector<std::string> pieces;
    std::error_code ec;
    for (const fs::path &dir :
         {fs::path(spool.done), fs::path(spool.claimedDir("thief"))})
        for (const auto &entry : fs::directory_iterator(dir, ec)) {
            const auto name =
                parseTaskName(entry.path().stem().string());
            if (name && name->generation == 1)
                pieces.push_back(entry.path().string());
        }
    // One piece per bystander, unless the box stalled one of them
    // past deadAfter; a single piece would prove nothing.
    ASSERT_GE(pieces.size(), 2u);
    EXPECT_LE(pieces.size(), 3u);

    // Every remaining job is stolen exactly once, with the seeds of
    // the campaign plan; no piece mixes sources beyond its borders.
    std::map<std::string, std::size_t> indexOf;
    for (std::size_t i = 0; i < plan.jobs.size(); ++i)
        indexOf[plan.jobs[i].label] = i;
    std::vector<int> stolen(plan.jobs.size(), 0);
    std::size_t pairs = 0;
    for (const std::string &piece : pieces) {
        const ExperimentPlan replay = deserializePlan(piece);
        EXPECT_FALSE(replay.deriveSeeds);
        std::set<std::string> pieceSources;
        for (const JobSpec &job : replay.jobs) {
            ASSERT_EQ(indexOf.count(job.label), 1u) << job.label;
            const std::size_t idx = indexOf[job.label];
            ++stolen[idx];
            EXPECT_EQ(jobSpecDigest(job), jobSpecDigest(plan.jobs[idx]))
                << job.label;
            pieceSources.insert(traceSourceKey(job));
        }
        pairs += pieceSources.size();
    }
    for (std::size_t i = 0; i < plan.jobs.size(); ++i)
        EXPECT_EQ(stolen[i], published.count(i) ? 0 : 1)
            << plan.jobs[i].label;
    EXPECT_LE(pairs, sources + pieces.size() - 1);
    fs::remove_all(spoolDir);
}

/**
 * Campaigns over real runner processes: the taskpoint_dispatch
 * binary resolved next to this test binary (both live in the build
 * directory), spawned by the coordinator as `--workers` does.
 */
class DispatchLocalRunners : public DispatchE2E
{
  protected:
    void
    SetUp() override
    {
        std::error_code ec;
        const fs::path self = fs::read_symlink("/proc/self/exe", ec);
        const fs::path runner = self.parent_path() / "taskpoint_dispatch";
        if (ec || !fs::exists(runner))
            GTEST_SKIP() << "taskpoint_dispatch not found next to the "
                            "test binary ("
                         << runner << ")";
    }

    static DispatchOptions
    localOptions(std::size_t runners)
    {
        DispatchOptions o;
        o.localRunners = runners;
        o.shards = static_cast<std::uint32_t>(runners);
        o.heartbeatInterval = milliseconds(50);
        return o;
    }

    static std::vector<BatchResult>
    run(const ExperimentPlan &plan, const DispatchOptions &options)
    {
        CollectingSink sink;
        runDispatchCampaign(plan, options, sink);
        return sink.take();
    }
};

/**
 * Writes a fault plan and exports it for the lifetime of the guard;
 * every runner spawned meanwhile inherits it through the environment.
 */
class RunnerFaultPlan
{
  public:
    RunnerFaultPlan(const fs::path &file, const std::string &rules)
    {
        std::ofstream(file) << "taskpoint-fault-plan v1\n" << rules;
        setenv(fault::kFaultPlanEnvVar, file.c_str(), 1);
    }
    ~RunnerFaultPlan() { unsetenv(fault::kFaultPlanEnvVar); }

    RunnerFaultPlan(const RunnerFaultPlan &) = delete;
    RunnerFaultPlan &operator=(const RunnerFaultPlan &) = delete;
};

TEST_F(DispatchLocalRunners, MatchesInProcessExecutionOrderedAndExact)
{
    const ExperimentPlan plan = smallPlan(5);
    expectMatchesInProcess(plan, run(plan, localOptions(3)));
}

TEST_F(DispatchLocalRunners, EmptyPlanCompletes)
{
    EXPECT_TRUE(run(ExperimentPlan{}, localOptions(4)).empty());
}

TEST_F(DispatchLocalRunners, StealsFromRunnerKilledMidStream)
{
    // Exactly one runner SIGKILLs itself after its first published
    // result; its task's two other jobs must be stolen and re-run
    // bit-identically.
    const fs::path dir = freshDir("killed");
    const std::string marker = (dir / "kill").string();
    const ExperimentPlan plan = smallPlan(6);
    DispatchOptions options = localOptions(2); // 3 jobs per task
    options.spoolDir = (dir / "spool").string();
    std::vector<BatchResult> results;
    {
        const RunnerFaultPlan faults(
            dir / "kill.plan",
            "once " + marker + "\non worker.stream.append 1 abort\n");
        results = run(plan, options);
    }

    EXPECT_TRUE(fs::exists(marker + ".worker.stream.append.1"))
        << "the kill must actually have fired";
    expectMatchesInProcess(plan, results);
    EXPECT_TRUE(sawStolenStream(options.spoolDir))
        << "no generation-1 result stream: nothing was stolen";
    fs::remove_all(dir);
}

TEST_F(DispatchLocalRunners, StealsJobsMissingFromADoneTask)
{
    // The runner's third append — the last job of its only task — is
    // torn short, so the task reaches done/ with an incomplete
    // stream. The missing job must be stolen as soon as the task is
    // marked done, well before the stalled-stream watchdog's span.
    const fs::path dir = freshDir("torn");
    const ExperimentPlan plan = smallPlan(3);
    DispatchOptions options = localOptions(1);
    options.spoolDir = (dir / "spool").string();
    options.stalledAfter = std::chrono::seconds(90);
    const auto start = std::chrono::steady_clock::now();
    std::vector<BatchResult> results;
    {
        const RunnerFaultPlan faults(
            dir / "torn.plan",
            "on worker.stream.append 3 short-write 5\n");
        results = run(plan, options);
    }

    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::minutes(1));
    expectMatchesInProcess(plan, results);
    EXPECT_TRUE(sawStolenStream(options.spoolDir))
        << "no generation-1 result stream: nothing was stolen";
    fs::remove_all(dir);
}

TEST_F(DispatchLocalRunners, UnusableRunnerBinaryFailsOnceSpawnsRunOut)
{
    // A failed campaign keeps its spool for post-mortems, so give it
    // one this test cleans up.
    const fs::path spoolDir = freshDir("hopeless");
    DispatchOptions options = localOptions(1);
    options.spoolDir = spoolDir.string();
    options.maxRetries = 2;
    options.runnerBinary = "/bin/false";
    EXPECT_THROW(run(smallPlan(2), options), SimError);
    fs::remove_all(spoolDir);
}

TEST_F(DispatchLocalRunners, CheckpointSlicesMatchInProcess)
{
    // Record warm-state checkpoints in-process, then run the plan as
    // a campaign over the store: its jobs must be split into slices
    // before the split into tasks and reassembled bit-identically.
    const fs::path dir = freshDir("slices");
    const std::string store = (dir / "ckpt").string();
    const ExperimentPlan plan = smallPlan(4);
    {
        const std::unique_ptr<ResultCache> checkpoints =
            openCheckpointDir(store);
        BatchOptions record;
        record.checkpoints = checkpoints.get();
        (void)BatchRunner(record).run(plan);
        ASSERT_TRUE(
            expandCheckpointSlices(plan, *checkpoints, 2).expanded)
            << "the recording run left nothing to slice";
    }

    DispatchOptions options = localOptions(2);
    options.spoolDir = (dir / "spool").string();
    options.checkpointDir = store;
    expectMatchesInProcess(plan, run(plan, options));

    bool sawSlice = false;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(
             SpoolPaths(options.spoolDir).done, ec))
        for (const JobSpec &job :
             deserializePlan(entry.path().string()).jobs)
            sawSlice |= job.isSlice();
    EXPECT_TRUE(sawSlice) << "no task carried a checkpoint slice";
    fs::remove_all(dir);
}

} // namespace
} // namespace tp::harness
