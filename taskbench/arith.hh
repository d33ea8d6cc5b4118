/**
 * @file
 * The benchmark's own arithmetic: order statistics, the tail
 * percentile rule, sampled-vs-reference error pairing, parallel
 * efficiency and self time from nested spans. Pure functions on
 * plain values, so runSelfTests() can check each on fixed inputs.
 */

#ifndef TASKBENCH_ARITH_HH
#define TASKBENCH_ARITH_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace taskbench {

/** @return the median of `v` (mean of the middle pair); 0 if empty. */
double median(std::vector<double> v);

/** A tail percentile and its value. */
struct TailPick
{
    /** Percentile in (0, 100], e.g. 99 or 95. */
    double percentile = 50.0;
    double value = 0.0;
    /** Samples ranked strictly above the percentile's rank. */
    std::size_t beyond = 0;
};

/**
 * The highest percentile of the ladder 99, 95, 90, 75, 50 that has
 * at least ten samples ranked beyond it. The ladder stops at p99:
 * above it, sub-millisecond jobs measure host preemption rather than
 * the program. The percentile's value is the nearest-rank sample:
 * rank k = ceil(p/100 * n), and `beyond` = n - k. With fewer than 20
 * samples no rung qualifies and the median rung (p50) is returned
 * with its short `beyond` count.
 */
TailPick tailPercentile(std::vector<double> v);

/** One simulated total, tagged with the trace/RunSpec it belongs to. */
struct CyclesRow
{
    /** Identity of the simulated trace and machine. */
    std::string key;
    /** The row is the full-detailed reference of `key`. */
    bool reference = false;
    std::uint64_t cycles = 0;
};

/** Errors of the sampled rows against their references. */
struct PairedErrors
{
    /** 100 * |T_sampled - T_detailed| / T_detailed, in row order. */
    std::vector<double> errorsPct;
    /** Sampled rows whose key has no (or a zero-cycle) reference. */
    std::size_t unpaired = 0;
    /** Keys with two references that disagree. */
    std::size_t conflicting = 0;
};

/** Pair every sampled row with the reference row of its key. */
PairedErrors pairErrors(const std::vector<CyclesRow> &rows);

/**
 * @return sum of per-job busy seconds / (campaign seconds x worker
 *         threads): 1.0 when every worker was busy for the whole
 *         campaign; 0 when the campaign or thread count is 0.
 */
double parallelEfficiency(double sumJobSeconds, double campaignSeconds,
                          std::size_t threads);

/** One traced call (see SpanRecorder in layers.hh). */
struct Span
{
    std::string name;
    /** Seconds since the recorder's origin. */
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** Job the call belongs to; kNoJob outside any job. */
    std::uint64_t job = 0;
};

inline constexpr std::uint64_t kNoJob = ~std::uint64_t(0);

/**
 * Self time per span name: each span's duration minus the length of
 * the union of its direct children's intervals (clipped to the
 * span), summed over spans of one name. Over a single-threaded trace
 * with one root, the values sum to the root's duration.
 */
std::map<std::string, double> selfTimes(const std::vector<Span> &spans);

/**
 * Check every function above on fixed inputs, writing one line per
 * failed case to `log`.
 *
 * @return the number of failed cases
 */
int runSelfTests(std::ostream &log);

} // namespace taskbench

#endif // TASKBENCH_ARITH_HH
