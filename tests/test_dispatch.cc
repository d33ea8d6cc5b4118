/**
 * @file
 * Tests of the distributed dispatch subsystem: spool task naming,
 * the live-tailed envelope stream reader (incomplete tails withheld,
 * corruption recoverable), duplicate-idempotent ordered merging,
 * poll backoff, the scheduling cost model, the `--workers` campaign
 * options, in-process coordinator/runner campaigns — with and
 * without a dead runner whose work must be stolen (also a
 * non-contiguous remainder, re-split with identical seeds), with
 * runners racing the coordinator's start-up, with runners slicing
 * checkpointed jobs themselves, and with the `timelines` marker —
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
