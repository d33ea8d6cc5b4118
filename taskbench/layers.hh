/**
 * @file
 * The traced run: a single-threaded replay of a workload's job steps
 * in BatchRunner's order (generate -> digest -> cache lookup ->
 * simulate -> encode -> store -> consume), with one span per call
 * into a layer's public functions, plus per-layer probes that time
 * each layer's entry points on the workload's own traces and jobs.
 * Spans are recorded from outside the simulator; nothing under src/
 * is instrumented.
 */

#ifndef TASKBENCH_LAYERS_HH
#define TASKBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "arith.hh"
#include "workloads.hh"

namespace taskbench {

/**
 * Keeps spans in memory for one thread. A disabled recorder records
 * nothing and reads no clock: it is the untraced arm of the
 * tracing-overhead measurement.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    /** Open a span under the innermost open one; @return its id. */
    int open(const char *name, std::uint64_t job);
    /** Close span `id` (must be the innermost open span). */
    void close(int id);

    bool enabled() const { return enabled_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span for the lifetime of the object. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name,
               std::uint64_t job = kNoJob)
        : rec_(rec), id_(rec.open(name, job))
    {}
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

/** Output of one interleaved replay. */
struct ReplayPair
{
    /** Host seconds each arm spent, summed over its jobs. */
    double plainSeconds = 0.0;
    double tracedSeconds = 0.0;
    /** Reports the arms' sinks produced (deterministic columns). */
    std::string plainReport;
    std::string tracedReport;
};

/**
 * Replay the campaign on this thread twice, job by job: an untraced
 * arm over `plainIn` and a traced arm over `tracedIn` recording into
 * `rec`, alternating which arm runs each job first so slow drift of
 * the host hits both arms alike. Each arm keeps its own sink and
 * trace memo; give each its own fresh cache where the campaign
 * stores. Every span of the traced arm sits under a "job" root.
 */
ReplayPair replayPair(const ReplayInputs &plainIn,
                      const ReplayInputs &tracedIn, SpanRecorder &rec);

/** A named per-layer metric. */
struct LayerMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (0 for exact counts). */
    std::size_t samples = 0;
};

/** Span names in report order (the layers of the replay). */
const std::vector<std::string> &spanLayers();

/**
 * Time each layer's public entry points on the workload's traces and
 * jobs, and read the exact counters of `run`'s results.
 */
std::vector<LayerMetric> probeLayers(Workload &w, const CampaignRun &run);

/**
 * Warm-plan dispatch overhead: the workload's plan against a warm
 * cache, run as a dispatch campaign and through BatchRunner with the
 * arms interleaved. @return median campaign minus median BatchRunner
 * seconds, and the number of pairs.
 */
std::pair<double, std::size_t> dispatchOverhead(Workload &w);

} // namespace taskbench

#endif // TASKBENCH_LAYERS_HH
