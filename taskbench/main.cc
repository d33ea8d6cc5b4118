/**
 * @file
 * The repository benchmark driver.
 *
 *   taskbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work DIR] [--spans FILE]
 *   taskbench --self-test
 *
 * One process, at most one job-executing thread per host CPU. With
 * --trace 0 it sets the workload up at least three times (setup_s is
 * the median), computes the reference oracle once (untimed), then
 * runs the workload's campaign once untimed to warm up and then back
 * to back a fixed number of times sized to fill S seconds on the
 * baseline machine (at least three; fewer only when the host is so
 * slow that 2 S have passed), and prints every end-to-end metric. With --trace 1 it sets
 * up once, runs the campaign twice, replays the campaign's job steps
 * single-threaded with and without spans, runs the layer probes and
 * prints every per-layer metric. Human-readable lines go first; the
 * last line of standard output is one JSON object. Every correctness
 * check counts into "failed"; the exit code is 0 only when all pass.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arith.hh"
#include "layers.hh"
#include "workloads.hh"

namespace {

using namespace taskbench;
using tp::harness::BatchMode;
using tp::harness::BatchResult;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string work;
    /** Where the traced run writes its spans (Chrome trace JSON). */
    std::string spans;
    bool selfTest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "taskbench: " << why
              << "\nusage: taskbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work DIR] [--spans FILE]\n       taskbench --self-test\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v);
            else if (flag == "--work")
                a.work = v;
            else if (flag == "--spans")
                a.spans = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (!a.selfTest && a.workload.empty())
        usage("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Printed metrics, in insertion order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note)
    {
        rows_.push_back({name, value, unit});
        std::printf("  %-40s %14.6g %-8s %s\n", name.c_str(), value,
                    unit.c_str(), note.c_str());
    }

    std::string
    json() const
    {
        std::string out;
        for (const Row &r : rows_) {
            char num[64];
            std::snprintf(num, sizeof num, "%.10g",
                          std::isfinite(r.value) ? r.value : 0.0);
            out += (out.empty() ? "" : ", ") + ("\"" + r.name + "\"") +
                   ": {\"value\": " + num + ", \"unit\": \"" + r.unit +
                   "\"}";
        }
        return "{" + out + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/** Correctness tally: every check counts into attempted/failed. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }
};

/** Everything deterministic about one result, for repeat checks. */
std::string
fingerprint(const BatchResult &r)
{
    std::ostringstream o;
    for (const tp::sim::SimResult *s :
         {r.reference ? &*r.reference : nullptr,
          r.sampled ? &r.sampled->result : nullptr}) {
        if (s == nullptr) {
            o << "-|";
            continue;
        }
        const tp::mem::HierarchyStats &h = s->memStats;
        o << s->totalCycles << ',' << s->detailedInsts << ','
          << s->fastInsts << ',' << s->detailedTasks << ','
          << s->fastTasks << ',' << h.l1.accesses << ',' << h.l1.misses
          << ',' << h.l2.accesses << ',' << h.l2.misses << ','
          << h.l3.accesses << ',' << h.l3.misses << ',' << h.dramRequests
          << ',' << h.coherenceInvalidations << '|';
    }
    if (r.sampled)
        o << r.sampled->stats.sampleTasks << ',' << r.sampled->stats.resamples;
    return o.str();
}

std::vector<std::string>
lines(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

/**
 * Per-job checks of one campaign: a job fails when any of its checks
 * fails. `first` holds the first campaign's fingerprints (filled on
 * the first call).
 */
void
checkCampaign(const Workload &w, const CampaignRun &run,
              std::vector<std::string> &first, Tally &tally)
{
    const auto &jobs = w.plan().jobs;
    const bool firstRun = first.empty();
    if (run.results.size() != jobs.size()) {
        tally.check(false, "campaign delivered " +
                               std::to_string(run.results.size()) + " of " +
                               std::to_string(jobs.size()) + " rows");
        return;
    }
    const std::vector<std::string> want = lines(w.expectedReport());
    const std::vector<std::string> got = lines(deterministicColumns(run.csv));
    std::size_t sampledJobs = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const BatchResult &r = run.results[i];
        const std::uint64_t total = w.expectedInsts(i);
        std::string why;
        if (r.index != i)
            why = "out of order";
        if (jobs[i].mode != BatchMode::Sampled) {
            if (!r.reference)
                why = "no reference";
            else if (r.reference->detailedInsts != total ||
                     r.reference->fastInsts != 0)
                why = "reference instructions != trace total";
        }
        if (jobs[i].mode != BatchMode::Reference) {
            ++sampledJobs;
            if (!r.sampled)
                why = "no sampled outcome";
            else if (r.sampled->result.detailedInsts +
                         r.sampled->result.fastInsts !=
                     total)
                why = "detailed + fast instructions != trace total";
            else if (w.cacheUse() == Workload::CacheUse::WarmHit &&
                     !r.sampledFromCache)
                why = "warm cache missed";
            else if (w.cacheUse() != Workload::CacheUse::WarmHit &&
                     r.sampledFromCache)
                why = "unexpected cache hit";
        }
        const std::string fp = fingerprint(r);
        if (firstRun)
            first.push_back(fp);
        else if (first[i] != fp)
            why = "cycles or memStats differ from the first repeat";
        if (!want.empty() &&
            (i + 1 >= got.size() || i + 1 >= want.size() ||
             got[i + 1] != want[i + 1]))
            why = "report row differs from the reference report";
        tally.check(why.empty(), "job " + std::to_string(i) + " (" +
                                     r.label + "): " + why);
    }
    if (w.cacheUse() == Workload::CacheUse::ColdStore)
        tally.check(run.cache.stores == sampledJobs &&
                        run.cache.failedStores == 0,
                    "cold cache stored " + std::to_string(run.cache.stores) +
                        " of " + std::to_string(sampledJobs) + " outcomes");
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * Set up from scratch at least three times and until one second has
 * passed (at most 31 times); @return the median seconds and count.
 */
std::pair<double, std::size_t>
timedSetups(Workload &w)
{
    std::vector<double> s;
    const Clock::time_point start = Clock::now();
    while (s.size() < 3 || (since(start) < 1.0 && s.size() < 31)) {
        const Clock::time_point t0 = Clock::now();
        w.setup();
        s.push_back(since(t0));
    }
    return {median(s), s.size()};
}

/** --trace 0: every end-to-end metric. */
void
measure(Workload &w, const Args &args, Tally &tally, Metrics &out)
{
    const auto [setupS, setups] = timedSetups(w);
    const std::map<std::string, std::uint64_t> oracle = w.oracleReferences();

    std::vector<double> campaignS;
    std::vector<double> rates;
    std::vector<double> jobS;
    std::vector<std::string> first;
    // One untimed warm-up campaign (checked like the rest) lets the
    // allocator and host caches settle before timing.
    CampaignRun firstRun = w.campaign();
    checkCampaign(w, firstRun, first, tally);
    const std::size_t campaigns = std::max<std::size_t>(
        3, static_cast<std::size_t>(args.seconds / w.nominalSeconds()));
    // A host much slower than the baseline stops early (after three
    // campaigns at least), so a run stays within about twice S.
    const Clock::time_point start = Clock::now();
    while (campaignS.size() < campaigns &&
           (campaignS.size() < 3 || since(start) < 2.0 * args.seconds)) {
        const CampaignRun run = w.campaign();
        checkCampaign(w, run, first, tally);
        double insts = 0.0;
        for (const BatchResult &r : run.results) {
            jobS.push_back(r.hostSeconds);
            if (r.reference)
                insts += double(r.reference->detailedInsts +
                                r.reference->fastInsts);
            if (r.sampled)
                insts += double(r.sampled->result.detailedInsts +
                                r.sampled->result.fastInsts);
        }
        campaignS.push_back(run.seconds);
        rates.push_back(run.seconds > 0.0 ? insts / run.seconds / 1e6 : 0.0);
    }

    // Error: sampled rows paired with the references of their traces.
    std::vector<CyclesRow> rows;
    for (const BatchResult &r : firstRun.results) {
        const std::string key = referenceKey(w.plan().jobs[r.index]);
        if (r.reference)
            rows.push_back({key, true, r.reference->totalCycles});
        if (r.sampled)
            rows.push_back({key, false, r.sampled->result.totalCycles});
    }
    for (const auto &[key, cycles] : oracle)
        rows.push_back({key, true, cycles});
    const PairedErrors errors = pairErrors(rows);
    tally.check(errors.unpaired == 0 && errors.conflicting == 0 &&
                    !errors.errorsPct.empty(),
                std::to_string(errors.unpaired) +
                    " sampled jobs without a reference, " +
                    std::to_string(errors.conflicting) +
                    " conflicting references");
    double errMean = 0.0;
    double errMax = 0.0;
    for (const double e : errors.errorsPct) {
        errMean += e / double(errors.errorsPct.size());
        errMax = std::max(errMax, e);
    }

    const TailPick tail = tailPercentile(jobS);
    const std::string n = "n=" + std::to_string(campaignS.size());
    const std::string nj = "n=" + std::to_string(jobS.size());
    std::printf("campaign seconds:");
    for (const double c : campaignS)
        std::printf(" %.3f", c);

    std::printf("\nend-to-end metrics (median over n samples):\n");
    out.add("campaign_s", median(campaignS), "s", n + " campaigns");
    out.add("sim_minsts_per_s", median(rates), "Minst/s", n + " campaigns");
    out.add("job_s_p50", median(jobS), "s", nj + " jobs");
    char tailNote[96];
    std::snprintf(tailNote, sizeof tailNote, "p%g, %zu beyond, %s jobs",
                  tail.percentile, tail.beyond, nj.c_str());
    out.add("job_s_tail", tail.value, "s", tailNote);
    const std::string en =
        "n=" + std::to_string(errors.errorsPct.size()) +
        " sampled jobs vs the detailed model (not validated against "
        "hardware)";
    out.add("error_pct_mean", errMean, "%", en);
    out.add("error_pct_max", errMax, "%", en);
    out.add("ok_ratio",
            1.0 - double(tally.failed) / double(std::max<std::uint64_t>(
                                             tally.attempted, 1)),
            "ratio",
            std::to_string(tally.failed) + " of " +
                std::to_string(tally.attempted) + " checks failed");
    out.add("peak_rss_mb", peakRssMb(), "MB", "process peak");
    out.add("setup_s", setupS, "s", "n=" + std::to_string(setups) + " setups");
}

/**
 * Write spans as Chrome trace-event JSON ("X" events, microseconds;
 * parent index and job id in args), viewable in Perfetto.
 */
void
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "taskbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"job\": %lld}}%s\n",
                     s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6, i,
                     s.parent,
                     s.job == kNoJob ? -1LL : static_cast<long long>(s.job),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

/** --trace 1: every per-layer metric. */
void
traced(Workload &w, const Args &args, Tally &tally, Metrics &out)
{
    w.setup();
    std::vector<std::string> first;
    std::vector<double> efficiency;
    CampaignRun firstRun;
    for (int i = 0; i < 2; ++i) {
        CampaignRun run = w.campaign();
        checkCampaign(w, run, first, tally);
        double busy = 0.0;
        for (const BatchResult &r : run.results)
            busy += r.hostSeconds;
        efficiency.push_back(parallelEfficiency(busy, run.seconds, run.workers));
        if (i == 0)
            firstRun = std::move(run);
    }
    const std::string campaignReport = deterministicColumns(firstRun.csv);

    // Untraced and traced replay of the same job steps, interleaved.
    const ReplayInputs plainIn = w.replayInputs();
    const ReplayInputs tracedIn = w.replayInputs();
    SpanRecorder rec(true);
    const ReplayPair rep = replayPair(plainIn, tracedIn, rec);
    tally.check(rep.plainReport == campaignReport &&
                    rep.tracedReport == campaignReport,
                "replayed report differs from the campaign report");
    if (!args.spans.empty())
        writeSpans(rec.spans(), args.spans);

    std::printf("per-layer metrics:\n");
    for (const LayerMetric &m : probeLayers(w, firstRun))
        out.add(m.name, m.value, m.unit,
                m.samples ? "n=" + std::to_string(m.samples) : "exact");
    const auto [overhead, pairs] = dispatchOverhead(w);
    out.add("harness.dispatch.overhead_s", overhead, "s",
            "n=" + std::to_string(pairs) + " interleaved pairs");
    out.add("harness.batch.parallel_efficiency", median(efficiency), "ratio",
            "n=2 campaigns");

    const std::map<std::string, double> self = selfTimes(rec.spans());
    const double wall = rep.tracedSeconds;
    out.add("trace.replay_s", wall, "s",
            std::to_string(rec.spans().size()) + " spans");
    out.add("trace.overhead_s", wall - rep.plainSeconds, "s",
            "traced minus untraced replay, job-interleaved");
    double covered = 0.0;
    for (const std::string &layer : spanLayers()) {
        const auto it = self.find(layer);
        const double s = it != self.end() ? it->second : 0.0;
        covered += s;
        out.add("trace.self_share." + layer, wall > 0.0 ? s / wall : 0.0,
                "ratio", "self time / traced wall");
    }
    out.add("trace.uncovered_share",
            wall > 0.0 ? (wall - covered) / wall : 0.0, "ratio",
            "traced wall outside every span");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const int selfFailures = runSelfTests(std::cout);
    if (args.selfTest) {
        std::printf("self-test: %d failures\n", selfFailures);
        return selfFailures == 0 ? 0 : 1;
    }

    Env env;
    // One job thread per CPU, at most eight: checkpoint slices hold
    // ~10 MB of warm state each, so memory grows with the thread count.
    env.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
    env.seed = args.seed;
    env.work = args.work.empty() ? std::filesystem::path(".bench_build") /
                                       ("work-" + std::to_string(::getpid()))
                                 : std::filesystem::path(args.work);
    std::unique_ptr<Workload> w;
    Tally tally;
    tally.check(selfFailures == 0, "benchmark arithmetic self-tests");
    Metrics metrics;
    int code = 0;
    try {
        std::filesystem::remove_all(env.work);
        std::filesystem::create_directories(env.work);
        w = makeWorkload(args.workload, env);
        if (!w)
            usage("unknown workload '" + args.workload + "'");
        std::printf("workload %s: %zu jobs, %zu threads, seed %llu\n",
                    w->name().c_str(), w->plan().jobs.size(), env.threads,
                    static_cast<unsigned long long>(args.seed));
        if (args.trace == 0)
            measure(*w, args, tally, metrics);
        else
            traced(*w, args, tally, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "taskbench: %s\n", e.what());
        code = 2;
    }
    w.reset();
    std::error_code ec;
    std::filesystem::remove_all(env.work, ec);
    if (code != 0)
        return code;
    const bool correct = tally.failed == 0;
    std::fflush(stdout);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                metrics.json().c_str());
    return correct ? 0 : 1;
}
