/**
 * @file
 * Tests of the multi-process result transport: the checksummed
 * result envelope rejects truncated and bit-flipped bytes with
 * recoverable IoError, and BatchResults round-trip bit-identically
 * through the wire format. Campaigns over spawned runner processes
 * are covered in test_dispatch.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/binary_io.hh"
#include "corruption_battery.hh"
#include "harness/batch_runner.hh"
#include "harness/worker.hh"
#include "sim/result_io.hh"

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

ExperimentPlan
smallPlan(std::size_t n = 5)
{
    ExperimentPlan plan;
    plan.baseSeed = 11;
    for (std::size_t i = 0; i < n; ++i) {
        JobSpec j;
        j.label = "job " + std::to_string(i);
        j.workload = i % 2 == 0 ? "histogram" : "vector-operation";
        j.workloadParams = tinyScale();
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 8;
        j.sampling = sampling::SamplingParams::periodic(100);
        j.mode = i % 3 == 0 ? BatchMode::Both : BatchMode::Sampled;
        plan.jobs.push_back(j);
    }
    return plan;
}

std::string
resultBytes(const BatchResult &r)
{
    std::ostringstream out(std::ios::binary);
    serializeBatchResult(r, out);
    return out.str();
}

TEST(ResultEnvelope, RoundTripsArbitraryPayloads)
{
    for (const std::string &payload :
         {std::string(), std::string("x"),
          std::string(100000, '\xab'),
          std::string("binary\0bytes\xff", 13)}) {
        std::ostringstream out(std::ios::binary);
        sim::writeEnvelope(out, payload);
        std::istringstream in(out.str(), std::ios::binary);
        EXPECT_EQ(sim::readEnvelope(in, "mem"), payload);
    }
}

TEST(ResultEnvelope, TruncationRaisesRecoverableIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "the payload under test");
    test::expectTruncationsThrow<IoError>(
        out.str(), [](const std::string &bad) {
            std::istringstream in(bad, std::ios::binary);
            (void)sim::readEnvelope(in, "trunc");
        });
}

TEST(ResultEnvelope, BitFlipsAnywhereRaiseIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "checksummed payload bytes here");
    test::expectBitFlipsThrow<IoError>(
        out.str(), [](const std::string &bad) {
            std::istringstream in(bad, std::ios::binary);
            (void)sim::readEnvelope(in, "flip");
        });
}

TEST(ResultEnvelope, TrailingBytesRaiseIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "payload");
    std::istringstream in(out.str() + "x", std::ios::binary);
    EXPECT_THROW((void)sim::readEnvelope(in, "trail"), IoError);
}

TEST(WorkerTransport, BatchResultRoundTripsBitIdentically)
{
    // Real results with every optional populated/absent combination.
    ExperimentPlan plan = smallPlan(3);
    plan.jobs[1].mode = BatchMode::Reference;
    const std::vector<BatchResult> results =
        BatchRunner(BatchOptions{}).run(plan);
    for (const BatchResult &r : results) {
        SCOPED_TRACE(r.label);
        const std::string bytes = resultBytes(r);
        std::istringstream in(bytes, std::ios::binary);
        const BatchResult back = deserializeBatchResult(in, "mem");
        EXPECT_EQ(back.index, r.index);
        EXPECT_EQ(back.label, r.label);
        EXPECT_EQ(back.sampled.has_value(), r.sampled.has_value());
        EXPECT_EQ(back.reference.has_value(),
                  r.reference.has_value());
        EXPECT_EQ(back.comparison.has_value(),
                  r.comparison.has_value());
        EXPECT_EQ(resultBytes(back), bytes)
            << "serialize(deserialize(x)) must equal x";
    }

    // Corrupt result payloads are recoverable errors, not crashes.
    const std::string good = resultBytes(results[0]);
    std::istringstream in(good.substr(0, good.size() / 2),
                          std::ios::binary);
    EXPECT_THROW((void)deserializeBatchResult(in, "trunc"),
                 IoError);
}

} // namespace
} // namespace tp::harness
