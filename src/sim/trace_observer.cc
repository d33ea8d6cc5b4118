#include "sim/trace_observer.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/binary_io.hh"
#include "common/logging.hh"

namespace tp::sim {

namespace {

constexpr std::uint64_t kTimelineMagic = 0x5450544c4e453101ULL;
constexpr std::uint32_t kTimelineFormatVersion = 1;

/**
 * Deterministic double formatting for trace JSON: %.6g never emits
 * locale- or libc-dependent digits beyond what the value needs, so
 * the document is byte-stable across reruns.
 */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

const char *
phaseName(std::uint8_t phase)
{
    switch (phase) {
      case kWarmupPhase:
        return "warmup";
      case kSamplingPhase:
        return "sampling";
      case kFastForwardPhase:
        return "fast-forward";
      case kDetailedOnlyPhase:
        return "detailed";
      default:
        return "?";
    }
}

void
serializeTimeline(const JobTimeline &t, std::ostream &out)
{
    BinaryWriter w(out);
    w.pod(kTimelineMagic);
    w.pod(kTimelineFormatVersion);
    w.pod(t.cores);
    w.pod(t.totalCycles);
    w.pod<std::uint64_t>(t.typeNames.size());
    for (const std::string &n : t.typeNames)
        w.str(n);
    w.pod<std::uint64_t>(t.tasks.size());
    for (const TimelineTask &task : t.tasks) {
        w.pod(task.id);
        w.pod(task.type);
        w.pod(task.core);
        w.pod(task.scheduled);
        w.pod(task.start);
        w.pod(task.end);
        w.pod(task.insts);
        w.pod(task.mode);
        w.pod(task.ipc);
        w.pod(task.readyAfter);
    }
    w.pod<std::uint64_t>(t.phases.size());
    for (const TimelinePhase &p : t.phases) {
        w.pod(p.at);
        w.pod(p.phase);
    }
    w.pod<std::uint64_t>(t.samples.size());
    for (const TimelineSample &s : t.samples) {
        w.pod(s.boundary);
        w.pod(s.at);
        w.pod(s.l1Misses);
        w.pod(s.l2Misses);
        w.pod(s.l3Misses);
        w.pod(s.dramRequests);
        w.pod(s.coherenceInvalidations);
    }
}

JobTimeline
deserializeTimeline(BinaryReader &r)
{
    if (r.pod<std::uint64_t>() != kTimelineMagic)
        throwIoError("'%s': not a timeline (bad magic)",
                     r.name().c_str());
    const auto version = r.pod<std::uint32_t>();
    if (version != kTimelineFormatVersion) {
        throwIoError("'%s': timeline format v%u, expected v%u",
                     r.name().c_str(), version,
                     kTimelineFormatVersion);
    }
    JobTimeline t;
    t.cores = r.pod<std::uint32_t>();
    t.totalCycles = r.pod<Cycles>();
    const auto ntypes = r.pod<std::uint64_t>();
    if (ntypes > (1ULL << 16))
        throwIoError("'%s': corrupt timeline type count",
                     r.name().c_str());
    t.typeNames.reserve(static_cast<std::size_t>(ntypes));
    for (std::uint64_t i = 0; i < ntypes; ++i)
        t.typeNames.push_back(r.str());

    const auto ntasks = r.pod<std::uint64_t>();
    // Each serialized task is 65 bytes; bound the reserve by what
    // the stream can actually hold.
    if (ntasks > r.remainingBytes() / 65 + 1)
        throwIoError("'%s': corrupt timeline task count",
                     r.name().c_str());
    t.tasks.reserve(static_cast<std::size_t>(ntasks));
    for (std::uint64_t i = 0; i < ntasks; ++i) {
        TimelineTask task;
        task.id = r.pod<TaskInstanceId>();
        task.type = r.pod<TaskTypeId>();
        task.core = r.pod<ThreadId>();
        task.scheduled = r.pod<Cycles>();
        task.start = r.pod<Cycles>();
        task.end = r.pod<Cycles>();
        task.insts = r.pod<InstCount>();
        task.mode = r.pod<std::uint8_t>();
        task.ipc = r.pod<double>();
        task.readyAfter = r.pod<std::uint64_t>();
        t.tasks.push_back(task);
    }

    const auto nphases = r.pod<std::uint64_t>();
    if (nphases > r.remainingBytes() / 9 + 1)
        throwIoError("'%s': corrupt timeline phase count",
                     r.name().c_str());
    t.phases.reserve(static_cast<std::size_t>(nphases));
    for (std::uint64_t i = 0; i < nphases; ++i) {
        TimelinePhase p;
        p.at = r.pod<Cycles>();
        p.phase = r.pod<std::uint8_t>();
        t.phases.push_back(p);
    }

    const auto nsamples = r.pod<std::uint64_t>();
    if (nsamples > r.remainingBytes() / 56 + 1)
        throwIoError("'%s': corrupt timeline sample count",
                     r.name().c_str());
    t.samples.reserve(static_cast<std::size_t>(nsamples));
    for (std::uint64_t i = 0; i < nsamples; ++i) {
        TimelineSample s;
        s.boundary = r.pod<std::uint64_t>();
        s.at = r.pod<Cycles>();
        s.l1Misses = r.pod<std::uint64_t>();
        s.l2Misses = r.pod<std::uint64_t>();
        s.l3Misses = r.pod<std::uint64_t>();
        s.dramRequests = r.pod<std::uint64_t>();
        s.coherenceInvalidations = r.pod<std::uint64_t>();
        t.samples.push_back(s);
    }
    return t;
}

void
TimelineRecorder::onRunBegin(std::uint32_t cores,
                             const std::vector<std::string> &types)
{
    timeline_ = JobTimeline{};
    timeline_.cores = cores;
    timeline_.typeNames = types;
    scheduled_.assign(cores, 0);
}

void
TimelineRecorder::onPhaseChange(Cycles at, std::uint8_t phase)
{
    timeline_.phases.push_back(TimelinePhase{at, phase});
}

void
TimelineRecorder::onTaskScheduled(ThreadId core, TaskInstanceId,
                                  Cycles at)
{
    scheduled_[core] = at;
}

void
TimelineRecorder::onTaskEnd(ThreadId core,
                            const trace::TaskInstance &inst,
                            Cycles start, Cycles end, SimMode mode,
                            double ipc, std::uint64_t readyTasks)
{
    TimelineTask t;
    t.id = inst.id;
    t.type = inst.type;
    t.core = core;
    t.scheduled = scheduled_[core];
    t.start = start;
    t.end = end;
    t.insts = inst.instCount;
    t.mode = static_cast<std::uint8_t>(mode);
    t.ipc = ipc;
    t.readyAfter = readyTasks;
    timeline_.tasks.push_back(t);
}

void
TimelineRecorder::onSampleBoundary(std::uint64_t boundary, Cycles at,
                                   const mem::HierarchyStats &mem)
{
    TimelineSample s;
    s.boundary = boundary;
    s.at = at;
    s.l1Misses = mem.l1.misses;
    s.l2Misses = mem.l2.misses;
    s.l3Misses = mem.l3.misses;
    s.dramRequests = mem.dramRequests;
    s.coherenceInvalidations = mem.coherenceInvalidations;
    timeline_.samples.push_back(s);
}

void
TimelineRecorder::onRunEnd(Cycles totalCycles)
{
    timeline_.totalCycles = totalCycles;
}

std::vector<CoreTimelineStats>
computeCoreStats(const JobTimeline &t)
{
    std::vector<CoreTimelineStats> stats(t.cores);
    for (const TimelineTask &task : t.tasks) {
        if (task.core >= t.cores)
            continue; // defensive: corrupt remote timeline
        CoreTimelineStats &c = stats[task.core];
        ++c.tasks;
        const Cycles dur =
            task.end > task.start ? task.end - task.start : Cycles{0};
        c.busy += dur;
        if (task.mode == static_cast<std::uint8_t>(SimMode::Detailed))
            c.detailedBusy += dur;
        else
            c.fastBusy += dur;
        // Intersect the task span with the phase step function
        // (phases are few: warmup/sampling/fast alternations).
        for (std::size_t i = 0; i < t.phases.size(); ++i) {
            const Cycles pbegin = t.phases[i].at;
            const Cycles pend = i + 1 < t.phases.size()
                                    ? t.phases[i + 1].at
                                    : std::max(t.totalCycles,
                                               task.end);
            const Cycles lo = std::max(task.start, pbegin);
            const Cycles hi = std::min(task.end, pend);
            if (hi > lo) {
                c.phaseBusy[t.phases[i].phase % kNumObserverPhases] +=
                    hi - lo;
            }
        }
    }
    return stats;
}

ChromeTraceStream::ChromeTraceStream(std::ostream &out) : out_(out)
{
    out_ << "{\"traceEvents\":[";
}

void
ChromeTraceStream::emit(const std::string &event)
{
    if (closed_)
        panic("ChromeTraceStream: event after close()");
    if (!first_)
        out_ << ",";
    first_ = false;
    out_ << "\n" << event;
}

void
ChromeTraceStream::metadata(std::uint64_t pid, std::uint64_t tid,
                            const std::string &what,
                            const std::string &name)
{
    emit(strprintf("{\"ph\":\"M\",\"pid\":%llu,\"tid\":%llu,"
                   "\"name\":%s,\"args\":{\"name\":%s}}",
                   static_cast<unsigned long long>(pid),
                   static_cast<unsigned long long>(tid),
                   jsonQuote(what).c_str(),
                   jsonQuote(name).c_str()));
}

void
ChromeTraceStream::sortIndex(std::uint64_t pid, std::uint64_t tid,
                             std::uint64_t index)
{
    emit(strprintf("{\"ph\":\"M\",\"pid\":%llu,\"tid\":%llu,"
                   "\"name\":\"thread_sort_index\","
                   "\"args\":{\"sort_index\":%llu}}",
                   static_cast<unsigned long long>(pid),
                   static_cast<unsigned long long>(tid),
                   static_cast<unsigned long long>(index)));
}

void
ChromeTraceStream::complete(std::uint64_t pid, std::uint64_t tid,
                            const std::string &name,
                            const std::string &cat, Cycles ts,
                            Cycles dur, const std::string &args)
{
    std::string e = strprintf(
        "{\"ph\":\"X\",\"pid\":%llu,\"tid\":%llu,\"name\":%s,"
        "\"cat\":%s,\"ts\":%llu,\"dur\":%llu",
        static_cast<unsigned long long>(pid),
        static_cast<unsigned long long>(tid), jsonQuote(name).c_str(),
        jsonQuote(cat).c_str(), static_cast<unsigned long long>(ts),
        static_cast<unsigned long long>(dur));
    if (!args.empty())
        e += ",\"args\":{" + args + "}";
    e += "}";
    emit(e);
}

void
ChromeTraceStream::counter(std::uint64_t pid, const std::string &name,
                           Cycles ts, const std::string &series)
{
    emit(strprintf("{\"ph\":\"C\",\"pid\":%llu,\"tid\":0,\"name\":%s,"
                   "\"ts\":%llu,\"args\":{%s}}",
                   static_cast<unsigned long long>(pid),
                   jsonQuote(name).c_str(),
                   static_cast<unsigned long long>(ts),
                   series.c_str()));
}

void
ChromeTraceStream::close()
{
    if (closed_)
        return;
    closed_ = true;
    out_ << "\n]}\n";
}

ChromeTraceStream::~ChromeTraceStream()
{
    close();
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char raw : s) {
        const auto c = static_cast<unsigned char>(raw);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += static_cast<char>(c);
        }
    }
    out += '"';
    return out;
}

void
emitTimelineEvents(ChromeTraceStream &stream, std::uint64_t pid,
                   const std::string &label, const JobTimeline &t)
{
    stream.metadata(pid, 0, "process_name", label);
    for (std::uint32_t c = 0; c < t.cores; ++c) {
        stream.metadata(pid, c, "thread_name",
                        strprintf("core %u", c));
        stream.sortIndex(pid, c, c);
    }
    const std::uint64_t phaseTid = t.cores;
    if (!t.phases.empty()) {
        stream.metadata(pid, phaseTid, "thread_name",
                        "sampling phase");
        stream.sortIndex(pid, phaseTid, phaseTid);
        for (std::size_t i = 0; i < t.phases.size(); ++i) {
            const Cycles begin = t.phases[i].at;
            const Cycles end = i + 1 < t.phases.size()
                                   ? t.phases[i + 1].at
                                   : t.totalCycles;
            stream.complete(pid, phaseTid,
                            phaseName(t.phases[i].phase), "phase",
                            begin, end > begin ? end - begin : 0, "");
        }
    }
    for (const TimelineTask &task : t.tasks) {
        const std::string name =
            task.type < t.typeNames.size() &&
                    !t.typeNames[task.type].empty()
                ? t.typeNames[task.type]
                : strprintf("type %u", task.type);
        const std::string args = strprintf(
            "\"id\":%llu,\"insts\":%llu,\"ipc\":%s,"
            "\"scheduled\":%llu,\"ready_after\":%llu",
            static_cast<unsigned long long>(task.id),
            static_cast<unsigned long long>(task.insts),
            fmtDouble(task.ipc).c_str(),
            static_cast<unsigned long long>(task.scheduled),
            static_cast<unsigned long long>(task.readyAfter));
        stream.complete(
            pid, task.core, name,
            toString(static_cast<SimMode>(task.mode)), task.start,
            task.end > task.start ? task.end - task.start : 0, args);
    }
    for (const TimelineSample &s : t.samples) {
        stream.counter(
            pid, "mem (cumulative)", s.at,
            strprintf(
                "\"l1_misses\":%llu,\"l2_misses\":%llu,"
                "\"l3_misses\":%llu,\"dram\":%llu,\"coh_inval\":%llu",
                static_cast<unsigned long long>(s.l1Misses),
                static_cast<unsigned long long>(s.l2Misses),
                static_cast<unsigned long long>(s.l3Misses),
                static_cast<unsigned long long>(s.dramRequests),
                static_cast<unsigned long long>(
                    s.coherenceInvalidations)));
    }
}

} // namespace tp::sim
