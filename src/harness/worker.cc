#include "harness/worker.hh"

#include <fstream>
#include <sstream>

#include "common/binary_io.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "sim/result_io.hh"

namespace tp::harness {

StreamPublishingSink::StreamPublishingSink(
    const std::string &streamPath)
    : out_(streamPath, std::ios::binary), path_(streamPath)
{
    // The coordinator guarantees a fresh stream name per task
    // execution (steal-generation-unique task names), so truncating
    // here can never discard results a tailer already consumed.
    if (!out_)
        fatal("worker: cannot create result stream '%s'",
              path_.c_str());
}

void
StreamPublishingSink::consume(BatchResult &&r)
{
    std::ostringstream payload(std::ios::binary);
    serializeBatchResult(r, payload);
    std::ostringstream framed(std::ios::binary);
    sim::writeEnvelope(framed, payload.str());

    const std::string bytes = framed.str();
    out_.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size()));
    out_.flush();
    if (!out_.good())
        fatal("worker: error appending to '%s'", path_.c_str());
    // The append just became durable — the boundary every tailer's
    // recovery story is written against. Injected data faults damage
    // the stream tail on disk (a truncated or flipped envelope the
    // reader must refuse); errno stands in for the append itself
    // failing like the fatal above; abort kills this runner mid-task
    // and delay wedges it with the stream silent (the stalled-stream
    // watchdog's case).
    if (const fault::FaultRule *rule =
            FAULT_CHECK("worker.stream.append")) {
        if (rule->action.kind == fault::FaultKind::ErrnoFault)
            fatal("worker: injected %s appending to '%s' "
                  "(fault site worker.stream.append)",
                  fault::errnoToken(rule->action.arg).c_str(),
                  path_.c_str());
        fault::corruptFile(*rule, path_);
    }
}

void
serializeBatchResult(const BatchResult &r, std::ostream &out)
{
    BinaryWriter w(out);
    w.pod<std::uint64_t>(r.index);
    w.str(r.label);
    writeBool(w, r.sampled.has_value());
    if (r.sampled)
        sim::serializeSampledOutcome(*r.sampled, out);
    writeBool(w, r.reference.has_value());
    if (r.reference)
        sim::serializeResult(*r.reference, out);
    writeBool(w, r.comparison.has_value());
    if (r.comparison) {
        w.pod(r.comparison->errorPct);
        w.pod(r.comparison->wallSpeedup);
        w.pod(r.comparison->detailFraction);
    }
    writeBool(w, r.referenceFromCache);
    writeBool(w, r.sampledFromCache);
    w.pod(r.hostSeconds);
    writeBool(w, r.timeline.has_value());
    if (r.timeline)
        sim::serializeTimeline(*r.timeline, out);
}

BatchResult
deserializeBatchResult(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    BatchResult res;
    res.index = static_cast<std::size_t>(r.pod<std::uint64_t>());
    res.label = r.str();
    if (readBool(r))
        res.sampled = sim::deserializeSampledOutcome(in, name);
    if (readBool(r))
        res.reference = sim::deserializeResult(in, name);
    if (readBool(r)) {
        ErrorSpeedup es;
        es.errorPct = r.pod<double>();
        es.wallSpeedup = r.pod<double>();
        es.detailFraction = r.pod<double>();
        res.comparison = es;
    }
    res.referenceFromCache = readBool(r);
    res.sampledFromCache = readBool(r);
    res.hostSeconds = r.pod<double>();
    if (readBool(r))
        res.timeline = sim::deserializeTimeline(r);
    return res;
}

} // namespace tp::harness
