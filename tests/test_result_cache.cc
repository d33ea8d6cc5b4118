/**
 * @file
 * Tests of the on-disk result cache: bit-identical replay of both
 * reference SimResults and sampled outcomes, single-field key
 * sensitivity (including sampling parameters), torn/truncated-entry
 * detection, LRU eviction under the size cap, counted and
 * once-warned store failures, and read-only/shared-directory
 * behaviour.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/binary_io.hh"
#include "corruption_battery.hh"
#include "harness/result_cache.hh"
#include "workloads/workloads.hh"

namespace fs = std::filesystem;

namespace tp::harness {
namespace {

work::WorkloadParams
tinyScale(std::uint64_t seed = 42)
{
    work::WorkloadParams p;
    p.scale = 0.02;
    p.seed = seed;
    return p;
}

RunSpec
smallSpec()
{
    RunSpec spec;
    spec.arch = cpu::highPerformanceConfig();
    spec.threads = 4;
    return spec;
}

/** Bitwise equality over every SimResult field, doubles included. */
bool
bitIdentical(const sim::SimResult &a, const sim::SimResult &b)
{
    const auto deq = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    if (a.totalCycles != b.totalCycles ||
        a.detailedTasks != b.detailedTasks ||
        a.fastTasks != b.fastTasks ||
        a.detailedInsts != b.detailedInsts ||
        a.fastInsts != b.fastInsts ||
        !deq(a.wallSeconds, b.wallSeconds) ||
        !deq(a.avgActiveCores, b.avgActiveCores))
        return false;
    const auto ceq = [](const mem::CacheStats &x,
                        const mem::CacheStats &y) {
        return x.accesses == y.accesses && x.hits == y.hits &&
               x.misses == y.misses && x.evictions == y.evictions &&
               x.writebacks == y.writebacks &&
               x.invalidations == y.invalidations &&
               x.prefetchFills == y.prefetchFills;
    };
    if (!ceq(a.memStats.l1, b.memStats.l1) ||
        !ceq(a.memStats.l2, b.memStats.l2) ||
        !ceq(a.memStats.l3, b.memStats.l3) ||
        a.memStats.dramRequests != b.memStats.dramRequests ||
        !deq(a.memStats.dramMeanQueueDelay,
             b.memStats.dramMeanQueueDelay) ||
        a.memStats.coherenceInvalidations !=
            b.memStats.coherenceInvalidations)
        return false;
    if (a.tasks.size() != b.tasks.size())
        return false;
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        const sim::TaskRecord &x = a.tasks[i];
        const sim::TaskRecord &y = b.tasks[i];
        if (x.id != y.id || x.type != y.type ||
            x.thread != y.thread || x.start != y.start ||
            x.end != y.end || x.insts != y.insts ||
            x.mode != y.mode || !deq(x.ipc, y.ipc))
            return false;
    }
    return true;
}

class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::path(testing::TempDir()) /
               (std::string("tp_result_cache_") + info->name());
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    ResultCacheOptions
    options(std::uint64_t maxBytes = 1ULL << 30)
    {
        ResultCacheOptions o;
        o.dir = dir_.string();
        o.maxBytes = maxBytes;
        return o;
    }

    fs::path dir_;
};

TEST_F(ResultCacheTest, HitReplaysBitIdenticalResult)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    RunSpec spec = smallSpec();
    spec.recordTasks = true; // include the per-task records
    const sim::SimResult fresh = runDetailed(t, spec);
    const std::string key = resultCacheKey(t, spec);

    ResultCache cache(options());
    EXPECT_FALSE(cache.lookup(key).has_value()) << "cold cache";
    cache.store(key, fresh);
    EXPECT_TRUE(cache.contains(key));

    const std::optional<sim::SimResult> replay = cache.lookup(key);
    ASSERT_TRUE(replay.has_value());
    EXPECT_TRUE(bitIdentical(fresh, *replay));
    EXPECT_GT(replay->tasks.size(), 0u);

    // A second cache on the same directory (separate process in
    // spirit) sees the entry too.
    ResultCache other(options());
    const std::optional<sim::SimResult> again = other.lookup(key);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(bitIdentical(fresh, *again));

    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
}

TEST_F(ResultCacheTest, AnySingleFieldChangeChangesTheKey)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    const RunSpec base = smallSpec();
    const std::string baseKey = resultCacheKey(t, base);

    std::set<std::string> keys = {baseKey};
    const auto expectNew = [&keys](const std::string &key,
                                   const char *what) {
        EXPECT_TRUE(keys.insert(key).second)
            << what << " must change the cache key";
    };

    RunSpec s = base;
    s.arch.core.robSize += 1;
    expectNew(resultCacheKey(t, s), "core.robSize");
    s = base;
    s.arch.core.issueWidth += 1;
    expectNew(resultCacheKey(t, s), "core.issueWidth");
    s = base;
    s.arch.memory.l1.sizeBytes *= 2;
    expectNew(resultCacheKey(t, s), "memory.l1.sizeBytes");
    s = base;
    s.arch.memory.l2.latency += 1;
    expectNew(resultCacheKey(t, s), "memory.l2.latency");
    s = base;
    s.arch.memory.hasL3 = !s.arch.memory.hasL3;
    expectNew(resultCacheKey(t, s), "memory.hasL3");
    s = base;
    s.arch.memory.dram.channels += 1;
    expectNew(resultCacheKey(t, s), "memory.dram.channels");
    s = base;
    s.arch.memory.prefetchDegree += 1;
    expectNew(resultCacheKey(t, s), "memory.prefetchDegree");
    s = base;
    s.threads += 1;
    expectNew(resultCacheKey(t, s), "threads");
    s = base;
    s.runtime.scheduler = rt::SchedulerKind::WorkStealing;
    expectNew(resultCacheKey(t, s), "runtime.scheduler");
    s = base;
    s.runtime.dispatchOverhead += 1;
    expectNew(resultCacheKey(t, s), "runtime.dispatchOverhead");
    s = base;
    s.runtime.seed += 1;
    expectNew(resultCacheKey(t, s), "runtime.seed");
    s = base;
    s.quantum += 1;
    expectNew(resultCacheKey(t, s), "quantum");
    s = base;
    s.recordTasks = !s.recordTasks;
    expectNew(resultCacheKey(t, s), "recordTasks");
    s = base;
    s.noise.enabled = !s.noise.enabled;
    expectNew(resultCacheKey(t, s), "noise.enabled");
    s = base;
    s.noise.seed += 1;
    expectNew(resultCacheKey(t, s), "noise.seed");
    s = base;
    s.noise.sigma += 0.001;
    expectNew(resultCacheKey(t, s), "noise.sigma");

    // Workload identity: a different generation seed, a different
    // scale, and a different workload each change the trace bytes.
    expectNew(resultCacheKey(work::generateWorkload(
                                 "histogram", tinyScale(43)),
                             base),
              "workload seed");
    work::WorkloadParams scaled = tinyScale();
    scaled.scale = 0.03;
    expectNew(resultCacheKey(
                  work::generateWorkload("histogram", scaled), base),
              "workload scale");
    expectNew(resultCacheKey(work::generateWorkload(
                                 "vector-operation", tinyScale()),
                             base),
              "workload name");

    // Format version: stale entries from an older build must miss.
    expectNew(resultCacheKey(t, base,
                             sim::kResultFormatVersion + 1),
              "format version");
}

TEST_F(ResultCacheTest, TornAndTruncatedEntriesAreMisses)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    const RunSpec spec = smallSpec();
    const sim::SimResult fresh = runDetailed(t, spec);
    const std::string key = resultCacheKey(t, spec);

    ResultCache cache(options());
    cache.store(key, fresh);
    const fs::path entry = dir_ / (key + ".tpres");
    ASSERT_TRUE(fs::exists(entry));

    // Read the intact entry bytes.
    std::string bytes;
    {
        std::ifstream in(entry, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }

    const auto overwrite = [&entry](const std::string &data) {
        std::ofstream out(entry,
                          std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
    };

    // Truncated and bit-flipped entries: all misses, no crash, no
    // exception escaping lookup.
    test::expectDamageRejected(
        bytes,
        [&](const std::string &damaged) {
            overwrite(damaged);
            return cache.lookup(key).has_value();
        },
        std::max<std::size_t>(1, bytes.size() / 16));

    // Garbage is a miss.
    overwrite("not a cache entry at all");
    EXPECT_FALSE(cache.lookup(key).has_value());

    // A store after the damage repairs the entry.
    cache.store(key, fresh);
    const std::optional<sim::SimResult> replay = cache.lookup(key);
    ASSERT_TRUE(replay.has_value());
    EXPECT_TRUE(bitIdentical(fresh, *replay));
}

TEST_F(ResultCacheTest, EntryUnderWrongKeyIsAMiss)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    const RunSpec spec = smallSpec();
    const sim::SimResult fresh = runDetailed(t, spec);
    const std::string key = resultCacheKey(t, spec);

    RunSpec other = spec;
    other.threads += 1;
    const std::string otherKey = resultCacheKey(t, other);

    ResultCache cache(options());
    cache.store(key, fresh);
    // Simulate a renamed/copied entry file: bytes are intact but
    // live under the wrong key. The embedded key must reject it.
    fs::copy_file(dir_ / (key + ".tpres"),
                  dir_ / (otherKey + ".tpres"));
    EXPECT_FALSE(cache.lookup(otherKey).has_value());
    EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST_F(ResultCacheTest, LruCapEvictsOldestEntries)
{
    const RunSpec spec = smallSpec();

    // Three distinct traces → three keys and three results.
    std::vector<std::string> keys;
    std::vector<sim::SimResult> results;
    std::uint64_t entryBytes = 0;
    {
        ResultCache probe(options());
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            const trace::TaskTrace t = work::generateWorkload(
                "histogram", tinyScale(seed));
            keys.push_back(resultCacheKey(t, spec));
            results.push_back(runDetailed(t, spec));
            probe.store(keys.back(), results.back());
        }
        entryBytes =
            fs::file_size(dir_ / (keys[0] + ".tpres"));
        fs::remove_all(dir_);
    }

    // Cap fits two entries (entries are equal-sized here).
    ResultCache cache(options(2 * entryBytes + entryBytes / 2));
    cache.store(keys[0], results[0]);
    cache.store(keys[1], results[1]);
    EXPECT_TRUE(cache.contains(keys[0]));
    EXPECT_TRUE(cache.contains(keys[1]));

    // Touch keys[0] so keys[1] is the least recently used...
    EXPECT_TRUE(cache.lookup(keys[0]).has_value());
    // ...then storing keys[2] evicts keys[1], not keys[0].
    cache.store(keys[2], results[2]);
    EXPECT_TRUE(cache.contains(keys[0]));
    EXPECT_FALSE(cache.contains(keys[1]));
    EXPECT_TRUE(cache.contains(keys[2]));
    EXPECT_EQ(cache.stats().evictions, 1u);

    // The evicted entry is simply a miss afterwards.
    EXPECT_FALSE(cache.lookup(keys[1]).has_value());
}

TEST_F(ResultCacheTest, LruOrderSurvivesReopen)
{
    const RunSpec spec = smallSpec();
    std::vector<std::string> keys;
    std::vector<sim::SimResult> results;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const trace::TaskTrace t =
            work::generateWorkload("histogram", tinyScale(seed));
        keys.push_back(resultCacheKey(t, spec));
        results.push_back(runDetailed(t, spec));
    }

    std::uint64_t entryBytes = 0;
    {
        ResultCache cache(options());
        cache.store(keys[0], results[0]);
        cache.store(keys[1], results[1]);
        EXPECT_TRUE(cache.lookup(keys[0]).has_value()); // refresh 0
        entryBytes =
            fs::file_size(dir_ / (keys[0] + ".tpres"));
    }

    // A new instance (new process in spirit) inherits the recency
    // order from index.tsv: 1 is LRU and gets evicted first.
    ResultCache reopened(options(2 * entryBytes + entryBytes / 2));
    reopened.store(keys[2], results[2]);
    EXPECT_TRUE(reopened.contains(keys[0]));
    EXPECT_FALSE(reopened.contains(keys[1]));
    EXPECT_TRUE(reopened.contains(keys[2]));
}

TEST_F(ResultCacheTest, ReadOnlyModeNeverWrites)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    const RunSpec spec = smallSpec();
    const sim::SimResult fresh = runDetailed(t, spec);
    const std::string key = resultCacheKey(t, spec);

    {
        ResultCache writer(options());
        writer.store(key, fresh);
    }

    ResultCacheOptions ro = options();
    ro.mode = CacheMode::ReadOnly;
    ResultCache cache(ro);

    // Reads hit; stores are dropped.
    EXPECT_TRUE(cache.lookup(key).has_value());
    RunSpec other = smallSpec();
    other.threads += 1;
    const std::string otherKey = resultCacheKey(t, other);
    cache.store(otherKey, fresh);
    EXPECT_FALSE(cache.contains(otherKey));
    EXPECT_EQ(cache.stats().stores, 0u);
}

TEST_F(ResultCacheTest, RealStoreFailuresAreCountedAndWarnedOnce)
{
    ResultCache cache(options());
    // A regular file where the directory was: every temp-file open
    // fails, even for root (which a chmod'ed directory would not
    // stop).
    fs::remove_all(dir_);
    std::ofstream(dir_) << "not a directory";

    testing::internal::CaptureStderr();
    EXPECT_NO_THROW(cache.storeBlob("first", "payload"));
    EXPECT_NO_THROW(cache.storeBlob("second", "payload"));
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(cache.stats().failedStores, 2u);
    EXPECT_EQ(cache.stats().stores, 0u);
    std::size_t warnings = 0;
    for (std::size_t at = err.find("store failed");
         at != std::string::npos;
         at = err.find("store failed", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;
}

TEST_F(ResultCacheTest, SampledEntryReplaysBitIdentical)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    RunSpec spec = smallSpec();
    spec.recordTasks = true;
    const sampling::SamplingParams params =
        sampling::SamplingParams::lazy();
    const SampledOutcome fresh = runSampled(t, spec, params);
    const std::string key = sampledCacheKey(t, spec, params);

    ResultCache cache(options());
    EXPECT_FALSE(cache.lookupSampled(key).has_value())
        << "cold cache";
    cache.storeSampled(key, fresh);
    EXPECT_TRUE(cache.contains(key));

    const std::optional<SampledOutcome> replay =
        cache.lookupSampled(key);
    ASSERT_TRUE(replay.has_value());
    EXPECT_TRUE(bitIdentical(fresh.result, replay->result));

    EXPECT_EQ(replay->stats.warmupTasks, fresh.stats.warmupTasks);
    EXPECT_EQ(replay->stats.sampleTasks, fresh.stats.sampleTasks);
    EXPECT_EQ(replay->stats.fastTasks, fresh.stats.fastTasks);
    EXPECT_EQ(replay->stats.resamples, fresh.stats.resamples);
    EXPECT_EQ(replay->stats.resamplesPeriod,
              fresh.stats.resamplesPeriod);
    EXPECT_EQ(replay->stats.resamplesNewType,
              fresh.stats.resamplesNewType);
    EXPECT_EQ(replay->stats.resamplesConcurrency,
              fresh.stats.resamplesConcurrency);
    EXPECT_EQ(replay->stats.phaseChanges, fresh.stats.phaseChanges);

    ASSERT_EQ(replay->phaseLog.size(), fresh.phaseLog.size());
    for (std::size_t i = 0; i < fresh.phaseLog.size(); ++i) {
        EXPECT_EQ(replay->phaseLog[i].at, fresh.phaseLog[i].at);
        EXPECT_EQ(replay->phaseLog[i].to, fresh.phaseLog[i].to);
    }
    EXPECT_EQ(replay->validHistSizes, fresh.validHistSizes);

    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
}

TEST_F(ResultCacheTest, SampledKeyCoversSamplingParams)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    const RunSpec spec = smallSpec();
    const sampling::SamplingParams base =
        sampling::SamplingParams::lazy();

    std::set<std::string> keys = {sampledCacheKey(t, spec, base)};
    const auto expectNew = [&keys](const std::string &key,
                                   const char *what) {
        EXPECT_TRUE(keys.insert(key).second)
            << what << " must change the sampled cache key";
    };

    // Sampled and reference entries of one (trace, spec) never
    // collide.
    expectNew(resultCacheKey(t, spec), "entry kind");

    sampling::SamplingParams p = base;
    p.warmup += 1;
    expectNew(sampledCacheKey(t, spec, p), "warmup");
    p = base;
    p.historySize += 1;
    expectNew(sampledCacheKey(t, spec, p), "historySize");
    p = base;
    p.period = 250;
    expectNew(sampledCacheKey(t, spec, p), "period");
    p = base;
    p.rareCutoff += 1;
    expectNew(sampledCacheKey(t, spec, p), "rareCutoff");
    p = base;
    p.concurrencyHysteresis += 1;
    expectNew(sampledCacheKey(t, spec, p), "concurrencyHysteresis");
    p = base;
    p.concurrencyTolerance += 0.001;
    expectNew(sampledCacheKey(t, spec, p), "concurrencyTolerance");

    // RunSpec fields and format version stay covered too.
    RunSpec s = spec;
    s.threads += 1;
    expectNew(sampledCacheKey(t, s, base), "threads");
    expectNew(sampledCacheKey(t, spec, base,
                              sim::kSampledFormatVersion + 1),
              "format version");
}

TEST_F(ResultCacheTest, TornSampledEntryIsAMiss)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    const RunSpec spec = smallSpec();
    const sampling::SamplingParams params =
        sampling::SamplingParams::lazy();
    const SampledOutcome fresh = runSampled(t, spec, params);
    const std::string key = sampledCacheKey(t, spec, params);

    ResultCache cache(options());
    cache.storeSampled(key, fresh);
    const fs::path entry = dir_ / (key + ".tpres");
    ASSERT_TRUE(fs::exists(entry));

    std::string bytes;
    {
        std::ifstream in(entry, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }
    for (double frac : {0.0, 0.5, 0.95}) {
        SCOPED_TRACE(frac);
        std::ofstream out(entry,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(
                      double(bytes.size()) * frac));
        out.close();
        EXPECT_FALSE(cache.lookupSampled(key).has_value());
    }

    // A store after the damage repairs the entry.
    cache.storeSampled(key, fresh);
    EXPECT_TRUE(cache.lookupSampled(key).has_value());
}

TEST_F(ResultCacheTest, KeysAreStableAcrossInstancesAndRuns)
{
    // The key of a fixed (trace, spec) pair must never drift between
    // processes or library versions, or every shared cache directory
    // silently goes cold. Recompute twice from scratch.
    const RunSpec spec = smallSpec();
    const std::string k1 = resultCacheKey(
        work::generateWorkload("histogram", tinyScale()), spec);
    const std::string k2 = resultCacheKey(
        work::generateWorkload("histogram", tinyScale()), spec);
    EXPECT_EQ(k1, k2);
    EXPECT_EQ(k1.size(), 32u) << "keys are 32 hex chars (128 bits)";

    // The two halves of the 128-bit digest must be independent —
    // a pair of identical 64-bit halves would mean the second seed
    // is not doing its job.
    EXPECT_NE(k1.substr(0, 16), k1.substr(16));
}

} // namespace
} // namespace tp::harness
