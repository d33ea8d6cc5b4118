/**
 * @file
 * Micro-benchmarks of the simulator substrate (google-benchmark):
 * cache lookups, synthetic instruction-stream generation, detailed
 * core throughput, end-to-end engine runs in both modes, and the
 * overhead probes of the switched-off execution tracing and fault
 * hooks:
 *
 *   ./micro_simulator --benchmark_filter='FaultPoint|EngineSampledRun'
 */

#include <benchmark/benchmark.h>

#include "common/fault_injection.hh"
#include "common/flat_map.hh"
#include "common/rng.hh"
#include "cpu/rob_core.hh"
#include "harness/experiment.hh"
#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "sim/event_queue.hh"
#include "sim/trace_observer.hh"
#include "trace/instr_stream.hh"
#include "trace/trace_builder.hh"
#include "workloads/workloads.hh"

using namespace tp;

namespace {

void
BM_CacheAccessHit(benchmark::State &state)
{
    mem::Cache c("bm", mem::CacheConfig{32 * 1024, 8, 64, 4, 0});
    c.access(0x1000, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(c.access(0x1000, false).hit);
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessStream(benchmark::State &state)
{
    mem::Cache c("bm", mem::CacheConfig{32 * 1024, 8, 64, 4, 0});
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a, false).hit);
        a += 64;
    }
}
BENCHMARK(BM_CacheAccessStream);

void
BM_HierarchyAccess(benchmark::State &state)
{
    mem::Hierarchy h(cpu::highPerformanceConfig().memory, 4);
    Rng rng(1);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.access(0, rng.nextBounded(1 << 20), false, now));
        now += 4;
    }
}
BENCHMARK(BM_HierarchyAccess);

void
BM_InstrStreamGeneration(benchmark::State &state)
{
    trace::TraceBuilder b("bm", 1);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    b.createTask(ty, 1u << 30);
    const trace::TaskTrace t = b.build();
    trace::InstrStream s(t.type(0), t.instance(0));
    trace::Instr in;
    for (auto _ : state) {
        s.next(in);
        benchmark::DoNotOptimize(in.addr);
    }
}
BENCHMARK(BM_InstrStreamGeneration);

void
BM_InstrStreamFillBlock(benchmark::State &state)
{
    trace::TraceBuilder b("bm", 1);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    b.createTask(ty, 1u << 30);
    const trace::TaskTrace t = b.build();
    trace::InstrStream s(t.type(0), t.instance(0));
    trace::Instr buf[256];
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.fillBlock(buf, 256));
        benchmark::DoNotOptimize(buf[0].addr);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_InstrStreamFillBlock);

void
BM_RngZipf(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.zipf(16384, 0.8));
}
BENCHMARK(BM_RngZipf);

void
BM_ZipfSampler(benchmark::State &state)
{
    Rng rng(7);
    const Rng::ZipfSampler zipf(16384, 0.8);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSampler);

void
BM_BernoulliSampler(benchmark::State &state)
{
    Rng rng(7);
    const Rng::BernoulliSampler coin(0.35);
    for (auto _ : state)
        benchmark::DoNotOptimize(coin.sample(rng));
}
BENCHMARK(BM_BernoulliSampler);

/** The sharers-directory access pattern of Hierarchy::access. */
void
BM_FlatMapCoherenceLookup(benchmark::State &state)
{
    FlatMap64<std::uint64_t> sharers;
    Rng rng(11);
    // Populate like a shared region: 16k hot lines above 2^34.
    constexpr std::uint64_t kBase = 1ULL << 34;
    for (std::uint64_t i = 0; i < 16384; ++i)
        sharers[kBase + i] = 1;
    for (auto _ : state) {
        std::uint64_t &mask =
            sharers[kBase + rng.nextBounded(16384)];
        mask |= 2;
        benchmark::DoNotOptimize(mask);
    }
}
BENCHMARK(BM_FlatMapCoherenceLookup);

/** The engine's pick-lagging-core pattern at 64 cores. */
void
BM_EngineEventQueue(benchmark::State &state)
{
    sim::CoreEventQueue q(64);
    Rng rng(13);
    for (ThreadId c = 0; c < 64; ++c)
        q.update(c, rng.nextBounded(1000));
    Cycles now = 1000;
    for (auto _ : state) {
        const ThreadId c = q.top();
        q.update(c, now + rng.nextBounded(256));
        ++now;
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_EngineEventQueue);

void
BM_DetailedCoreThroughput(benchmark::State &state)
{
    const cpu::ArchConfig arch = cpu::highPerformanceConfig();
    mem::Hierarchy h(arch.memory, 1);
    cpu::RobCore core(arch.core, h, 0);

    trace::TraceBuilder b("bm", 1);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    b.createTask(ty, 1u << 30);
    const trace::TaskTrace t = b.build();
    core.beginTask(t.type(0), t.instance(0), 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(core.step(1024));
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DetailedCoreThroughput);

void
BM_EngineDetailedRun(benchmark::State &state)
{
    work::WorkloadParams wp;
    wp.scale = 0.015; // ~250 tasks: keep iterations short
    const trace::TaskTrace t =
        work::generateWorkload("histogram", wp);
    for (auto _ : state) {
        harness::RunSpec spec;
        spec.arch = cpu::highPerformanceConfig();
        spec.threads = 8;
        benchmark::DoNotOptimize(
            harness::runDetailed(t, spec).totalCycles);
    }
}
BENCHMARK(BM_EngineDetailedRun)->Unit(benchmark::kMillisecond);

/**
 * Keep the probe an out-of-line call per iteration so it times the
 * macro as sites actually use it, not a hoisted remnant of it.
 */
[[gnu::noinline]] std::uint64_t
faultPointOnce(std::uint64_t i)
{
    FAULT_POINT("micro.fault.probe");
    return i;
}

/**
 * The zero-overhead-when-off contract of common/fault_injection: one
 * inactive FAULT_POINT (no plan installed) per iteration.
 */
void
BM_FaultPointInactive(benchmark::State &state)
{
    fault::clearFaultPlan();
    std::uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(faultPointOnce(i++));
}
BENCHMARK(BM_FaultPointInactive);

/** The runs BM_EngineSampledRun's argument selects. */
enum SampledVariant : std::int64_t
{
    kLazy,
    kAdaptive,
    kTraced,
    kInertPlan,
};

/**
 * One sampled histogram run per iteration. Beside the plain lazy run
 * sit the adaptive policy at a 1% CI target and the two
 * zero-overhead-when-off contracts: a TimelineRecorder attached
 * (sim/trace_observer; the plain run is the null-observer fast path)
 * and an installed fault plan whose one rule names a site that never
 * fires.
 */
void
BM_EngineSampledRun(benchmark::State &state)
{
    const auto variant = static_cast<SampledVariant>(state.range(0));
    work::WorkloadParams wp;
    wp.scale = 0.015;
    const trace::TaskTrace t =
        work::generateWorkload("histogram", wp);
    const sampling::SamplingParams params =
        variant == kAdaptive ? sampling::SamplingParams::adaptive(0.01)
                             : sampling::SamplingParams::lazy();
    static const char *const kLabels[] = {"lazy", "adaptive",
                                          "traced", "inert-plan"};
    state.SetLabel(kLabels[variant]);

    if (variant == kInertPlan)
        fault::installFaultPlan(fault::parseFaultPlan(
            "taskpoint-fault-plan v1\non micro.fault.never 1 delay 1\n",
            "inert"));
    harness::RunSpec spec;
    spec.arch = cpu::highPerformanceConfig();
    spec.threads = 8;
    for (auto _ : state) {
        sim::TimelineRecorder recorder;
        benchmark::DoNotOptimize(
            harness::runSampled(t, spec, params, nullptr,
                                variant == kTraced ? &recorder
                                                   : nullptr)
                .result.totalCycles);
    }
    fault::clearFaultPlan();
}
BENCHMARK(BM_EngineSampledRun)
    ->DenseRange(kLazy, kInertPlan)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
