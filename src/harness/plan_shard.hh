/**
 * @file
 * Splitting plans into contiguous parts, and checkpoint slices.
 *
 * shardRange() is the one partition rule: part i of k over n jobs
 * covers [i*n/k, (i+1)*n/k), sizes differing by at most one. The
 * dispatch coordinator (harness/dispatch, cutTasks) first orders an
 * interleaved plan so that the jobs of each trace source are adjacent
 * and then cuts that order into spool tasks with it — so a source's
 * jobs land in one task even when the plan interleaves sources, and
 * per-source trace memoization pays off inside each runner — and
 * checkpoint-slice expansion tiles a run's sample boundaries with it.
 *
 * Checkpoint-slice expansion (live-points). Dispatch splits a plan
 * *between* jobs; expandCheckpointSlices() additionally splits
 * *within* a job. A previous run of the same sampled job recorded a
 * warm-state checkpoint at every sample-phase boundary (see
 * sim/checkpoint.hh) plus a manifest naming how many boundaries
 * there were; expansion consults the checkpoint store and replaces
 * the job with per-interval slice jobs, each restoring the
 * checkpoint at its start boundary instead of replaying the prefix.
 * A SliceMergingSink reassembles the slice results into exactly the
 * BatchResult stream of the unexpanded plan, so downstream reports
 * are byte-identical (host wall-clock aside) to a serial run.
 * Checkpoints are purely an accelerator: a job with no manifest
 * passes through unchanged and records on this run.
 */

#ifndef TP_HARNESS_PLAN_SHARD_HH
#define TP_HARNESS_PLAN_SHARD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/job_spec.hh"
#include "harness/result_sink.hh"

namespace tp::harness {

class ResultCache;

/**
 * @return the half-open range [first, last) of indices part
 *         `shardIndex` of `shardCount` covers over `numJobs` jobs.
 *         Every index lands in exactly one part; sizes differ by at
 *         most one.
 */
std::pair<std::size_t, std::size_t>
shardRange(std::size_t numJobs, std::uint32_t shardIndex,
           std::uint32_t shardCount);

/**
 * @return the serialized checkpoint manifest of one recorded run —
 *         the number of sample-phase boundaries the recording
 *         crossed (and hence how many checkpoints exist, keyed
 *         1..boundaryCount by harness::checkpointBlobKey).
 */
std::string serializeCheckpointManifest(std::uint64_t boundaryCount);

/**
 * @return the boundary count of a manifest blob, or std::nullopt
 *         when the blob is damaged or from a different format
 *         version (the job then passes through unexpanded and
 *         re-records — a stale manifest can never corrupt results).
 */
std::optional<std::uint64_t>
parseCheckpointManifest(const std::string &blob);

/**
 * How one job of the original plan maps onto the expanded plan: the
 * next `count` results of the expanded stream belong to original job
 * `origIndex`. Groups appear in original submission order, so the
 * SliceMergingSink needs no random access.
 */
struct SliceGroup
{
    /** The job's submission index in the original plan. */
    std::uint64_t origIndex = 0;
    /** Expanded jobs in this group (1 when passed through). */
    std::uint32_t count = 1;
    /** The group's jobs are checkpoint slices (plus optional ref). */
    bool sliced = false;
    /** First job of the group is the split-off Reference half. */
    bool hasRef = false;
};

/** Result of expandCheckpointSlices(). */
struct CheckpointExpansion
{
    /**
     * The executable expanded plan: seeds already applied per
     * *original* index (deriveSeeds disabled), jobs in original
     * order with sliced jobs replaced by their slices.
     */
    ExperimentPlan plan;
    /** One group per original job, in order. */
    std::vector<SliceGroup> groups;
    /** At least one job was actually sliced. */
    bool expanded = false;
};

/**
 * Split every sampled job of `plan` that has a recorded checkpoint
 * manifest in `checkpoints` into at most `maxSlices` contiguous
 * boundary-interval slices (Both-mode jobs additionally split off
 * their Reference half as its own job, so the detailed reference
 * runs concurrently with the slices). Jobs with no manifest, slice
 * jobs, and Reference-only jobs pass through unchanged. Seeds are
 * resolved per original index exactly as BatchRunner::run would, so
 * slice results are bit-identical to the unexpanded run.
 */
CheckpointExpansion
expandCheckpointSlices(const ExperimentPlan &plan,
                       ResultCache &checkpoints,
                       std::uint32_t maxSlices);

/**
 * Reassembles the result stream of an expanded plan into the stream
 * of the original plan and forwards it to `inner` (not owned; must
 * outlive the sink): per group, task records are concatenated across
 * slices, cumulative aggregates (cycle count, instruction counters,
 * sampling statistics, phase log) are taken from the last slice —
 * they rode the checkpoints — and host timings are summed; Both-mode
 * groups recompute the error/speedup comparison against the rejoined
 * reference. `inner` observes exactly one begin/consume/end sequence
 * over original indices and labels.
 */
class SliceMergingSink final : public ResultSink
{
  public:
    SliceMergingSink(ResultSink &inner,
                     std::vector<SliceGroup> groups);

    void begin(std::size_t totalJobs) override;
    void consume(BatchResult &&result) override;
    void end() override;

  private:
    void flushGroup();

    ResultSink &inner_;
    std::vector<SliceGroup> groups_;
    std::size_t group_ = 0;
    std::vector<BatchResult> pending_;
};

} // namespace tp::harness

#endif // TP_HARNESS_PLAN_SHARD_HH
