/**
 * @file
 * The BatchResult wire format shared by dispatch runners and the
 * campaign coordinator (harness/dispatch), and the sink that
 * publishes it.
 *
 * The transport is one appendable result stream per spool task: a
 * dispatch runner executes each claimed task plan through the
 * ordinary BatchRunner into a StreamPublishingSink, which appends
 * each finished BatchResult — the serialized result wrapped in
 * sim/result_io's checksummed envelope — to the task's
 * `results/<task>.tprs` stream, flushing after every append. The
 * envelope framing concatenates cleanly, so a tailing coordinator
 * (sim::EnvelopeStreamReader) consumes complete, checksum-verified
 * results as the stream grows; a runner that dies mid-append leaves
 * at most an incomplete tail, which the reader treats as
 * not-yet-published, never as data. One stream per task means a
 * million-job sweep creates O(tasks) result files, not O(jobs).
 *
 * Result indices are task-local (the task plan's submission order);
 * the coordinator, which cut the task out of the campaign plan, maps
 * them back to campaign-plan indices.
 */

#ifndef TP_HARNESS_WORKER_HH
#define TP_HARNESS_WORKER_HH

#include <fstream>
#include <string>

#include "harness/result_sink.hh"

namespace tp::harness {

/**
 * Write one BatchResult (payload only, no framing). Every field —
 * including the optional reference, sampled outcome and comparison —
 * round-trips bit-identically, so a result shipped from a runner is
 * indistinguishable from one computed in-process.
 */
void serializeBatchResult(const BatchResult &r, std::ostream &out);

/**
 * Read a BatchResult back; exact inverse of serializeBatchResult.
 *
 * @param name label for error messages
 * @throws IoError on truncation or corrupt fields
 */
BatchResult deserializeBatchResult(std::istream &in,
                                   const std::string &name);

/**
 * Appends each finished result to one envelope stream, created (and
 * truncated) at construction; fatal when it cannot be written.
 *
 * Each append is one buffered write of a whole envelope followed by
 * a flush, so a crash between jobs leaves a clean stream boundary
 * and a crash mid-write leaves an incomplete tail — which the
 * tailing coordinator's EnvelopeStreamReader treats as
 * not-yet-published, never as a result.
 */
class StreamPublishingSink final : public ResultSink
{
  public:
    explicit StreamPublishingSink(const std::string &streamPath);

    void consume(BatchResult &&r) override;

  private:
    std::ofstream out_;
    std::string path_;
};

} // namespace tp::harness

#endif // TP_HARNESS_WORKER_HH
