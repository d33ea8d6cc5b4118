/**
 * @file
 * Tests of plan splitting: the shardRange partition covers every job
 * exactly once for any (plan size, part count), and task plans cut
 * from a derived-seed plan the way the dispatch coordinator cuts them
 * — seeds resolved per plan index, derivation off, written and read
 * back through the plan codec — reassemble into results identical to
 * one in-process run.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "harness/batch_runner.hh"
#include "harness/plan_shard.hh"

namespace tp::harness {
namespace {

work::WorkloadParams
tinyScale()
{
    work::WorkloadParams p;
    p.scale = 0.02;
    p.seed = 42;
    return p;
}

/** A derived-seed plan of `n` jobs with distinct labels. */
ExperimentPlan
planOfSize(std::size_t n)
{
    ExperimentPlan plan;
    plan.baseSeed = 7;
    for (std::size_t i = 0; i < n; ++i) {
        JobSpec j;
        j.label = "job " + std::to_string(i);
        j.workload = i % 2 == 0 ? "histogram" : "vector-operation";
        j.workloadParams = tinyScale();
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 8;
        j.sampling = sampling::SamplingParams::lazy();
        j.mode = BatchMode::Sampled;
        plan.jobs.push_back(j);
    }
    return plan;
}

TEST(TaskPlans, PartitionCoversEveryJobExactlyOnce)
{
    for (std::size_t n : {0u, 1u, 2u, 3u, 5u, 19u, 64u, 100u}) {
        for (std::uint32_t k : {1u, 2u, 3u, 4u, 7u, 16u, 100u}) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " k=" << k);
            std::set<std::size_t> covered;
            std::size_t minSize = n, maxSize = 0;
            for (std::uint32_t i = 0; i < k; ++i) {
                const auto [first, last] = shardRange(n, i, k);
                ASSERT_LE(first, last);
                ASSERT_LE(last, n);
                for (std::size_t j = first; j < last; ++j) {
                    ASSERT_TRUE(covered.insert(j).second)
                        << "index " << j << " covered twice";
                }
                minSize = std::min(minSize, last - first);
                maxSize = std::max(maxSize, last - first);
            }
            EXPECT_EQ(covered.size(), n)
                << "every job must land in exactly one shard";
            if (n >= k) {
                EXPECT_LE(maxSize - minSize, 1u)
                    << "partition must be balanced";
            }
        }
    }
}

TEST(TaskPlans, ExecutionReassemblesToInProcessResults)
{
    // Cut the plan into task plans as the dispatch coordinator does,
    // ship each through the plan codec and its own BatchRunner —
    // exactly what runners do — and compare against one in-process
    // run.
    const ExperimentPlan plan = planOfSize(5);
    const std::vector<BatchResult> reference =
        BatchRunner(BatchOptions{}).run(plan);

    std::vector<BatchResult> all;
    const std::uint32_t tasks = 3;
    for (std::uint32_t t = 0; t < tasks; ++t) {
        const auto [first, last] =
            shardRange(plan.jobs.size(), t, tasks);
        ExperimentPlan task;
        task.deriveSeeds = false;
        for (std::size_t j = first; j < last; ++j) {
            JobSpec job = plan.jobs[j];
            BatchRunner::applyDerivedSeed(job, plan.baseSeed, j);
            task.jobs.push_back(std::move(job));
        }
        std::stringstream file(std::ios::in | std::ios::out |
                               std::ios::binary);
        serializePlan(task, file);
        for (BatchResult &r : BatchRunner(BatchOptions{})
                                  .run(deserializePlan(file, "task"))) {
            r.index += first; // task-local -> plan index
            all.push_back(std::move(r));
        }
    }
    ASSERT_EQ(all.size(), plan.jobs.size());

    // The parts are contiguous and ordered, so the concatenation is
    // already in plan submission order.
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        SCOPED_TRACE(plan.jobs[i].label);
        EXPECT_EQ(all[i].index, i);
        EXPECT_EQ(all[i].label, reference[i].label);
        ASSERT_TRUE(all[i].sampled.has_value());
        EXPECT_EQ(all[i].sampled->result.totalCycles,
                  reference[i].sampled->result.totalCycles);
        EXPECT_EQ(all[i].sampled->result.detailedInsts,
                  reference[i].sampled->result.detailedInsts);
        EXPECT_EQ(all[i].sampled->result.fastInsts,
                  reference[i].sampled->result.fastInsts);
    }
}

} // namespace
} // namespace tp::harness
