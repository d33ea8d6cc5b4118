/**
 * @file
 * Streaming trace observers for the simulation engine.
 *
 * A TraceObserver receives the engine's task lifecycle events
 * (scheduled/start/end per core), sampling-phase transitions
 * (warmup/sampling/fast-forward from the mode controller), and
 * memory-hierarchy counter snapshots at sample boundaries. Observers
 * are strictly read-only: the engine emits events only behind an
 * `observer != nullptr` check and never draws randomness or mutates
 * state on their behalf, so attaching one cannot perturb a run
 * (NullTraceObserver plus the golden battery prove it).
 *
 * The concrete observers shipped here:
 *  - NullTraceObserver    — the zero-cost baseline (all no-ops).
 *  - TimelineRecorder     — records a compact JobTimeline value that
 *                           serializes into result streams, so
 *                           dispatch runners ship each job's timeline
 *                           back to the coordinator.
 *
 * JobTimeline is also the transport for the report-side sinks in
 * harness/trace_report.hh (Chrome trace merging, per-core stats).
 */

#ifndef TP_SIM_TRACE_OBSERVER_HH
#define TP_SIM_TRACE_OBSERVER_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "memory/hierarchy.hh"
#include "sim/sim_mode.hh"
#include "trace/task.hh"

namespace tp {
class BinaryReader;
}

namespace tp::sim {

/**
 * Phase codes reported to observers. 0..2 mirror sampling::Phase
 * (Warmup, Sampling, Fast); kDetailedOnlyPhase marks a run whose
 * controller has no phase structure (the full-detailed reference).
 */
inline constexpr std::uint8_t kWarmupPhase = 0;
inline constexpr std::uint8_t kSamplingPhase = 1;
inline constexpr std::uint8_t kFastForwardPhase = 2;
inline constexpr std::uint8_t kDetailedOnlyPhase = 3;
inline constexpr std::uint32_t kNumObserverPhases = 4;

/** @return printable phase-track name for a phase code. */
const char *phaseName(std::uint8_t phase);

/** See file comment. */
class TraceObserver
{
  public:
    virtual ~TraceObserver() = default;

    /** Run starts: core count and task-type names (indexed by id). */
    virtual void onRunBegin(std::uint32_t /*cores*/,
                            const std::vector<std::string> & /*types*/)
    {}

    /** The sampling phase changed (also emitted once at run start). */
    virtual void onPhaseChange(Cycles /*at*/, std::uint8_t /*phase*/) {}

    /** A task instance was picked from the ready queue for `core`. */
    virtual void onTaskScheduled(ThreadId /*core*/,
                                 TaskInstanceId /*id*/, Cycles /*at*/)
    {}

    /** The instance begins executing (after dispatch overhead). */
    virtual void onTaskStart(ThreadId /*core*/,
                             const trace::TaskInstance & /*inst*/,
                             Cycles /*start*/, SimMode /*mode*/)
    {}

    /**
     * The instance completed.
     * @param ipc        measured (detailed) or applied (fast) IPC
     * @param readyTasks eligible tasks still queued after completion
     */
    virtual void onTaskEnd(ThreadId /*core*/,
                           const trace::TaskInstance & /*inst*/,
                           Cycles /*start*/, Cycles /*end*/,
                           SimMode /*mode*/, double /*ipc*/,
                           std::uint64_t /*readyTasks*/)
    {}

    /**
     * A sample boundary (phase-epoch increment, see
     * ModeController::phaseEpoch) with cumulative memory counters.
     */
    virtual void onSampleBoundary(std::uint64_t /*boundary*/,
                                  Cycles /*at*/,
                                  const mem::HierarchyStats & /*mem*/)
    {}

    /** Run (or slice) finished at `totalCycles`. */
    virtual void onRunEnd(Cycles /*totalCycles*/) {}
};

/** The zero-cost baseline: inherits every no-op unchanged. */
class NullTraceObserver final : public TraceObserver
{};

/** One executed task instance on the recorded timeline. */
struct TimelineTask
{
    TaskInstanceId id = 0;
    TaskTypeId type = 0;
    ThreadId core = 0;
    Cycles scheduled = 0; //!< picked from the ready queue
    Cycles start = 0;     //!< execution begin (after dispatch)
    Cycles end = 0;
    InstCount insts = 0;
    std::uint8_t mode = 0; //!< SimMode
    double ipc = 0.0;
    std::uint64_t readyAfter = 0;
};

/** One phase transition (step function until the next entry). */
struct TimelinePhase
{
    Cycles at = 0;
    std::uint8_t phase = kDetailedOnlyPhase;
};

/** Cumulative memory counters snapshotted at one sample boundary. */
struct TimelineSample
{
    std::uint64_t boundary = 0;
    Cycles at = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l3Misses = 0;
    std::uint64_t dramRequests = 0;
    std::uint64_t coherenceInvalidations = 0;
};

/**
 * Everything one run emitted, as a serializable value — the unit a
 * worker ships back and a coordinator merges into a campaign trace.
 */
struct JobTimeline
{
    std::uint32_t cores = 0;
    Cycles totalCycles = 0;
    std::vector<std::string> typeNames;
    std::vector<TimelineTask> tasks; //!< in completion order
    std::vector<TimelinePhase> phases;
    std::vector<TimelineSample> samples;
};

/** Serialize `t` (binary, versioned) onto `out`. */
void serializeTimeline(const JobTimeline &t, std::ostream &out);

/** Inverse of serializeTimeline; throws IoError on corruption. */
JobTimeline deserializeTimeline(BinaryReader &r);

/** Records the whole run into a JobTimeline value. */
class TimelineRecorder final : public TraceObserver
{
  public:
    void onRunBegin(std::uint32_t cores,
                    const std::vector<std::string> &types) override;
    void onPhaseChange(Cycles at, std::uint8_t phase) override;
    void onTaskScheduled(ThreadId core, TaskInstanceId id,
                         Cycles at) override;
    void onTaskEnd(ThreadId core, const trace::TaskInstance &inst,
                   Cycles start, Cycles end, SimMode mode, double ipc,
                   std::uint64_t readyTasks) override;
    void onSampleBoundary(std::uint64_t boundary, Cycles at,
                          const mem::HierarchyStats &mem) override;
    void onRunEnd(Cycles totalCycles) override;

    const JobTimeline &timeline() const { return timeline_; }
    JobTimeline take() { return std::move(timeline_); }

  private:
    JobTimeline timeline_;
    /** Last onTaskScheduled cycle per core (tasks on one core are
     *  strictly sequential, so a single pending slot suffices). */
    std::vector<Cycles> scheduled_;
};

/** Busy/idle/phase-occupancy summary of one core's timeline. */
struct CoreTimelineStats
{
    std::uint64_t tasks = 0;
    Cycles busy = 0;         //!< sum of task durations
    Cycles detailedBusy = 0; //!< busy cycles in detailed mode
    Cycles fastBusy = 0;     //!< busy cycles in fast mode
    /** Busy cycles intersected with each sampling phase (indexed by
     *  phase code; kDetailedOnlyPhase for reference runs). */
    std::array<Cycles, kNumObserverPhases> phaseBusy{};
};

/** @return per-core stats (size = timeline.cores). */
std::vector<CoreTimelineStats>
computeCoreStats(const JobTimeline &t);

/**
 * Incremental writer for the Chrome trace-event JSON format
 * (https://chromium.googlesource.com/catapult > trace-viewer; loads
 * in chrome://tracing and Perfetto). Emits no wall-clock or host
 * fields: the document is byte-stable across reruns. Timestamps are
 * simulated cycles published in the format's microsecond field.
 */
class ChromeTraceStream
{
  public:
    /** Opens the document (`{"traceEvents":[`) on `out`. */
    explicit ChromeTraceStream(std::ostream &out);

    /** Metadata event naming a process or thread track. */
    void metadata(std::uint64_t pid, std::uint64_t tid,
                  const std::string &what, const std::string &name);
    /** Thread sort-order hint. */
    void sortIndex(std::uint64_t pid, std::uint64_t tid,
                   std::uint64_t index);
    /**
     * Complete ("X") duration event.
     * @param args extra JSON object body (`"k":v,...`) or empty
     */
    void complete(std::uint64_t pid, std::uint64_t tid,
                  const std::string &name, const std::string &cat,
                  Cycles ts, Cycles dur, const std::string &args);
    /** Counter ("C") event with a raw JSON series body. */
    void counter(std::uint64_t pid, const std::string &name, Cycles ts,
                 const std::string &series);

    /** Closes the document (`]}`); further events are an error. */
    void close();

    ~ChromeTraceStream();

  private:
    void emit(const std::string &event);

    std::ostream &out_;
    bool first_ = true;
    bool closed_ = false;
};

/** @return `s` as a quoted, escaped JSON string literal. */
std::string jsonQuote(const std::string &s);

/**
 * Emit one timeline as a trace-event process: a track per core, a
 * sampling-phase track, and cumulative memory counters. `pid` keys
 * the process; `label` names it.
 */
void emitTimelineEvents(ChromeTraceStream &stream, std::uint64_t pid,
                        const std::string &label,
                        const JobTimeline &t);

} // namespace tp::sim

#endif // TP_SIM_TRACE_OBSERVER_HH
