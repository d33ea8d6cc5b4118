#include "layers.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "cpu/rob_core.hh"
#include "harness/batch_runner.hh"
#include "memory/hierarchy.hh"
#include "runtime/runtime.hh"
#include "sim/checkpoint.hh"
#include "sim/result_io.hh"
#include "trace/instr_stream.hh"
#include "workloads/workloads.hh"

namespace taskbench {

namespace fs = std::filesystem;
using namespace tp;
using harness::BatchMode;
using harness::BatchResult;
using harness::JobSpec;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A realized trace and, once a cache needs it, its digest. */
struct Source
{
    std::shared_ptr<const trace::TaskTrace> trace;
    std::string digest;
};

template <typename T>
std::string
encode(const T &value, void (*fn)(const T &, std::ostream &))
{
    std::ostringstream out(std::ios::binary);
    fn(value, out);
    return out.str();
}

/** Look up `key`, decoding a hit with `decode`. */
template <typename T, typename Decode>
std::optional<T>
lookup(SpanRecorder &rec, std::uint64_t job, harness::ResultCache &cache,
       const std::string &key, Decode decode)
{
    std::optional<std::string> blob;
    {
        ScopedSpan s(rec, "harness.cache.lookup", job);
        blob = cache.loadBlob(key);
    }
    if (!blob)
        return std::nullopt;
    ScopedSpan s(rec, "sim.result_io.decode", job);
    std::istringstream in(*blob, std::ios::binary);
    return decode(in, key);
}

/** Encode `value` and publish it under `key`. */
template <typename T>
void
store(SpanRecorder &rec, std::uint64_t job, harness::ResultCache &cache,
      const std::string &key, const T &value,
      void (*fn)(const T &, std::ostream &))
{
    std::string blob;
    {
        ScopedSpan s(rec, "sim.result_io.encode", job);
        blob = encode(value, fn);
    }
    ScopedSpan s(rec, "harness.cache.store", job);
    cache.storeBlob(key, blob);
}

/** One job's steps, in BatchRunner::runJob's order. */
BatchResult
replayJob(const ReplayInputs &in, std::size_t index, Source &src,
          SpanRecorder &rec)
{
    const JobSpec &job = in.plan.jobs[index];
    const std::uint64_t id = index;
    const trace::TaskTrace &trace = *src.trace;
    if (in.cache != nullptr && src.digest.empty()) {
        ScopedSpan s(rec, "harness.cache.key", id);
        src.digest = harness::traceDigest(trace);
    }
    BatchResult r;
    r.index = index;
    r.label = job.label;
    if (job.mode != BatchMode::Sampled) {
        std::string key;
        if (in.cache != nullptr) {
            {
                ScopedSpan s(rec, "harness.cache.key", id);
                key = harness::resultCacheKey(src.digest, job.spec);
            }
            r.reference = lookup<sim::SimResult>(
                rec, id, *in.cache, key,
                [](std::istream &is, const std::string &name) {
                    return sim::deserializeResult(is, name);
                });
            r.referenceFromCache = r.reference.has_value();
        }
        if (!r.reference) {
            {
                ScopedSpan s(rec, "sim.detailed", id);
                r.reference = harness::runDetailed(trace, job.spec);
            }
            if (in.cache != nullptr)
                store(rec, id, *in.cache, key, *r.reference,
                      &sim::serializeResult);
        }
    }
    if (job.mode != BatchMode::Reference) {
        const bool useCache = in.cache != nullptr && !job.isSlice();
        std::string key;
        if (useCache) {
            {
                ScopedSpan s(rec, "harness.cache.key", id);
                key = harness::sampledCacheKey(src.digest, job.spec,
                                               job.sampling);
            }
            r.sampled = lookup<harness::SampledOutcome>(
                rec, id, *in.cache, key,
                [](std::istream &is, const std::string &name) {
                    return sim::deserializeSampledOutcome(is, name);
                });
            r.sampledFromCache = r.sampled.has_value();
        }
        if (!r.sampled) {
            sim::CheckpointHooks hooks;
            sim::Checkpoint restore;
            if (job.isSlice()) {
                hooks.stopBoundary = job.stopBoundary;
                if (in.checkpoints != nullptr && job.startBoundary > 0) {
                    ScopedSpan s(rec, "sim.checkpoint.restore", id);
                    const std::string bkey = harness::checkpointBlobKey(
                        harness::memoryConfigDigest(job.spec.arch.memory),
                        harness::checkpointJobDigest(job),
                        job.startBoundary);
                    if (std::optional<std::string> blob =
                            in.checkpoints->loadBlob(bkey)) {
                        restore = sim::deserializeCheckpoint(*blob, bkey);
                        if (restore.boundary == job.startBoundary)
                            hooks.restore = &restore;
                    }
                }
            }
            {
                ScopedSpan s(rec, "sim.sampled", id);
                r.sampled = harness::runSampled(
                    trace, job.spec, job.sampling,
                    job.isSlice() ? &hooks : nullptr);
            }
            if (useCache)
                store(rec, id, *in.cache, key, *r.sampled,
                      &sim::serializeSampledOutcome);
        }
    }
    if (job.mode == BatchMode::Both)
        r.comparison = harness::compare(*r.reference, r.sampled->result);
    return r;
}

/** Deterministic job order for probes: by label, then plan index. */
std::vector<const JobSpec *>
sortedJobs(const Workload &w)
{
    std::vector<const JobSpec *> jobs;
    for (const JobSpec &j : w.plan().jobs)
        jobs.push_back(&j);
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const JobSpec *a, const JobSpec *b) {
                         return a->label < b->label;
                     });
    return jobs;
}

/** Up to `cap` distinct trace sources, realized, in label order. */
struct Traces
{
    std::vector<const JobSpec *> jobs; //!< first job naming each
    std::vector<trace::TaskTrace> traces;
    std::vector<double> generateSeconds;
};

Traces
realizeSources(const Workload &w, std::size_t cap)
{
    Traces t;
    std::map<std::string, bool> seen;
    for (const JobSpec *j : sortedJobs(w)) {
        if (t.jobs.size() >= cap)
            break;
        if (!seen.emplace(sourceKey(*j), true).second)
            continue;
        const Clock::time_point t0 = Clock::now();
        t.traces.push_back(
            work::generateWorkload(j->workload, j->workloadParams));
        t.generateSeconds.push_back(since(t0));
        t.jobs.push_back(j);
    }
    return t;
}

/** (trace, instance) pairs covering a bounded instruction budget. */
std::vector<std::pair<std::size_t, std::size_t>>
instanceSample(const Traces &t, InstCount perTrace, InstCount total)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    InstCount all = 0;
    for (std::size_t ti = 0; ti < t.traces.size() && all < total; ++ti) {
        InstCount mine = 0;
        const trace::TaskTrace &tr = t.traces[ti];
        for (std::size_t i = 0; i < tr.size() && mine < perTrace; ++i) {
            out.emplace_back(ti, i);
            mine += tr.instance(TaskInstanceId(i)).instCount;
        }
        all += mine;
    }
    return out;
}

/** Median over `reps` calls of `fn`, each returning a per-unit cost. */
template <typename Fn>
double
medianOf(int reps, Fn fn)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i)
        v.push_back(fn());
    return median(v);
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den > 0 ? double(num) / double(den) : 0.0;
}

} // namespace

// ---------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now())
{
}

int
SpanRecorder::open(const char *name, std::uint64_t job)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    s.start = since(origin_);
    spans_.push_back(std::move(s));
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    spans_[std::size_t(id)].end = since(origin_);
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

namespace {

/** One arm of the interleaved replay: its own sink, memo and clock. */
class Arm
{
  public:
    Arm(const ReplayInputs &in, SpanRecorder &rec) : in_(in), rec_(rec), csv_(out_)
    {
        if (!in_.groups.empty())
            merging_.emplace(csv_, in_.groups);
    }

    void
    begin()
    {
        const Clock::time_point t0 = Clock::now();
        sink().begin(in_.plan.jobs.size());
        seconds_ += since(t0);
    }

    /** Job i's steps, as BatchRunner runs them, then its consume. */
    void
    job(std::size_t i)
    {
        const Clock::time_point t0 = Clock::now();
        {
            const JobSpec &job = in_.plan.jobs[i];
            ScopedSpan js(rec_, "job", i);
            // Pinned-seed plans share sources: realize each once, as
            // BatchRunner's trace store does.
            const std::string key = sourceKey(job);
            auto it = sources_.find(key);
            if (it == sources_.end()) {
                ScopedSpan s(rec_, "workloads.generate", i);
                Source src;
                src.trace = std::make_shared<const trace::TaskTrace>(
                    work::generateWorkload(job.workload,
                                           job.workloadParams));
                it = sources_.emplace(key, std::move(src)).first;
            }
            BatchResult r = replayJob(in_, i, it->second, rec_);
            r.hostSeconds = since(t0);
            ScopedSpan s(rec_, "harness.report.consume", i);
            sink().consume(std::move(r));
        }
        seconds_ += since(t0);
    }

    void
    end()
    {
        const Clock::time_point t0 = Clock::now();
        sink().end();
        seconds_ += since(t0);
    }

    double seconds() const { return seconds_; }
    std::string report() const { return deterministicColumns(out_.str()); }

  private:
    harness::ResultSink &
    sink()
    {
        return merging_ ? static_cast<harness::ResultSink &>(*merging_)
                        : csv_;
    }

    const ReplayInputs &in_;
    SpanRecorder &rec_;
    std::ostringstream out_;
    harness::CsvSink csv_;
    std::optional<harness::SliceMergingSink> merging_;
    std::map<std::string, Source> sources_;
    double seconds_ = 0.0;
};

} // namespace

ReplayPair
replayPair(const ReplayInputs &plainIn, const ReplayInputs &tracedIn,
           SpanRecorder &rec)
{
    SpanRecorder off(false);
    Arm plain(plainIn, off);
    Arm traced(tracedIn, rec);
    plain.begin();
    traced.begin();
    const std::size_t n = plainIn.plan.jobs.size();
    for (std::size_t i = 0; i < n; ++i) {
        // Alternate which arm goes first, so neither inherits the
        // other's warm host caches on every job.
        Arm &a = i % 2 == 0 ? plain : traced;
        Arm &b = i % 2 == 0 ? traced : plain;
        a.job(i);
        b.job(i);
    }
    plain.end();
    traced.end();
    ReplayPair out;
    out.plainSeconds = plain.seconds();
    out.tracedSeconds = traced.seconds();
    out.plainReport = plain.report();
    out.tracedReport = traced.report();
    return out;
}

const std::vector<std::string> &
spanLayers()
{
    static const std::vector<std::string> layers = {
        "job",
        "workloads.generate",
        "harness.cache.key",
        "harness.cache.lookup",
        "sim.result_io.decode",
        "sim.detailed",
        "sim.sampled",
        "sim.checkpoint.restore",
        "sim.result_io.encode",
        "harness.cache.store",
        "harness.report.consume"};
    return layers;
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

std::vector<LayerMetric>
probeLayers(Workload &w, const CampaignRun &run)
{
    std::vector<LayerMetric> m;
    auto add = [&m](const char *name, double value, const char *unit,
                    std::size_t samples) {
        m.push_back({name, value, unit, samples});
    };

    // workloads + trace digest: one call per distinct source.
    const Traces t = realizeSources(w, 24);
    std::vector<double> ms;
    for (const double s : t.generateSeconds)
        ms.push_back(s * 1e3);
    add("workloads.generate_ms", median(ms), "ms", ms.size());
    ms.clear();
    for (const trace::TaskTrace &tr : t.traces) {
        const Clock::time_point t0 = Clock::now();
        const std::string d = harness::traceDigest(tr);
        ms.push_back(since(t0) * 1e3);
        if (d.empty())
            warn("empty trace digest");
    }
    add("harness.cache.key_ms", median(ms), "ms", ms.size());

    const harness::RunSpec spec = t.jobs.front()->spec;
    const auto sample = instanceSample(t, 200'000, 2'000'000);
    InstCount sampleInsts = 0;
    for (const auto &[ti, ii] : sample)
        sampleInsts += t.traces[ti].instance(TaskInstanceId(ii)).instCount;

    // trace: instruction synthesis alone.
    std::vector<trace::Instr> block(256);
    std::vector<std::pair<Addr, bool>> accesses;
    const double fillNs = medianOf(3, [&] {
        accesses.clear();
        const Clock::time_point t0 = Clock::now();
        for (const auto &[ti, ii] : sample) {
            const trace::TaskTrace &tr = t.traces[ti];
            const trace::TaskInstance &inst =
                tr.instance(TaskInstanceId(ii));
            trace::InstrStream s(tr.type(inst.type), inst);
            while (InstCount n = s.fillBlock(block.data(), block.size()))
                for (InstCount k = 0; k < n; ++k)
                    if (accesses.size() < 1'000'000 &&
                        (block[k].cls == trace::InstrClass::Load ||
                         block[k].cls == trace::InstrClass::Store))
                        accesses.emplace_back(
                            block[k].addr,
                            block[k].cls == trace::InstrClass::Store);
        }
        return since(t0) * 1e9 / double(std::max<InstCount>(sampleInsts, 1));
    });
    add("trace.fill_ns_per_inst", fillNs, "ns", 3);

    // cpu: the ROB core (with synthesis) against a fresh hierarchy.
    const double coreNs = medianOf(3, [&] {
        const Clock::time_point t0 = Clock::now();
        std::size_t last = ~std::size_t(0);
        std::unique_ptr<mem::Hierarchy> hier;
        std::unique_ptr<cpu::RobCore> core;
        Cycles now = 0;
        for (const auto &[ti, ii] : sample) {
            if (ti != last) {
                hier = std::make_unique<mem::Hierarchy>(spec.arch.memory, 1);
                core = std::make_unique<cpu::RobCore>(spec.arch.core, *hier,
                                                      ThreadId(0));
                now = 0;
                last = ti;
            }
            const trace::TaskTrace &tr = t.traces[ti];
            const trace::TaskInstance &inst =
                tr.instance(TaskInstanceId(ii));
            core->beginTask(tr.type(inst.type), inst, now);
            while (!core->step(spec.quantum)) {
            }
            now = core->finishTime();
        }
        return since(t0) * 1e9 / double(std::max<InstCount>(sampleInsts, 1));
    });
    add("cpu.core_ns_per_inst", coreNs, "ns", 3);

    // memory: the kernels' loads and stores replayed through access().
    const double accessNs = medianOf(3, [&] {
        mem::Hierarchy hier(spec.arch.memory, 1);
        Cycles now = 0;
        Cycles sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (const auto &[addr, write] : accesses)
            sink += hier.access(ThreadId(0), addr, write, ++now).latency;
        const double ns = since(t0) * 1e9 /
                          double(std::max<std::size_t>(accesses.size(), 1));
        if (sink == 0 && !accesses.empty())
            warn("memory probe saw zero latency");
        return ns;
    });
    add("memory.access_ns", accessNs, "ns", 3);

    // sim: whole detailed runs over sources until 3M instructions.
    {
        double secs = 0.0;
        InstCount insts = 0;
        std::size_t runs = 0;
        for (std::size_t i = 0; i < t.traces.size() && insts < 3'000'000;
             ++i) {
            const Clock::time_point t0 = Clock::now();
            const sim::SimResult r =
                harness::runDetailed(t.traces[i], t.jobs[i]->spec);
            secs += since(t0);
            insts += r.detailedInsts;
            ++runs;
        }
        add("sim.detailed_minsts_per_s",
            secs > 0.0 ? double(insts) / secs / 1e6 : 0.0, "Minst/s", runs);
    }

    // memory counters: exact, summed over the campaign's results.
    {
        mem::HierarchyStats sum;
        for (const BatchResult &r : run.results)
            for (const sim::SimResult *s :
                 {r.reference ? &*r.reference : nullptr,
                  r.sampled ? &r.sampled->result : nullptr}) {
                if (s == nullptr)
                    continue;
                const mem::HierarchyStats &h = s->memStats;
                sum.l1.accesses += h.l1.accesses;
                sum.l1.misses += h.l1.misses;
                sum.l2.accesses += h.l2.accesses;
                sum.l2.misses += h.l2.misses;
                sum.l3.accesses += h.l3.accesses;
                sum.l3.misses += h.l3.misses;
                sum.dramRequests += h.dramRequests;
                sum.coherenceInvalidations += h.coherenceInvalidations;
            }
        add("memory.l1_miss_ratio", ratio(sum.l1.misses, sum.l1.accesses),
            "ratio", 0);
        add("memory.l2_miss_ratio", ratio(sum.l2.misses, sum.l2.accesses),
            "ratio", 0);
        add("memory.l3_miss_ratio", ratio(sum.l3.misses, sum.l3.accesses),
            "ratio", 0);
        add("memory.dram_requests", double(sum.dramRequests), "count", 0);
        add("memory.coherence_invalidations",
            double(sum.coherenceInvalidations), "count", 0);
    }

    // runtime: a dependency-respecting drain of every source.
    {
        std::size_t tasks = 0;
        const double ns = medianOf(3, [&] {
            tasks = 0;
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < t.traces.size(); ++i) {
                const harness::RunSpec &s = t.jobs[i]->spec;
                rt::RuntimeModel model(t.traces[i], s.runtime, s.threads);
                std::vector<bool> idle(s.threads, true);
                std::deque<std::pair<TaskInstanceId, ThreadId>> running;
                while (!model.allDone()) {
                    for (ThreadId th = 0; th < s.threads; ++th) {
                        if (!idle[th])
                            continue;
                        const TaskInstanceId id = model.fetchTask(th);
                        if (id == kNoTaskInstance)
                            continue;
                        running.emplace_back(id, th);
                        idle[th] = false;
                    }
                    if (running.empty())
                        break; // nothing eligible: a malformed trace
                    const auto [id, th] = running.front();
                    running.pop_front();
                    model.taskCompleted(id, th);
                    idle[th] = true;
                    ++tasks;
                }
            }
            return since(t0) * 1e9 / double(std::max<std::size_t>(tasks, 1));
        });
        add("runtime.ns_per_task", ns, "ns", 3);
    }

    // sampling: exact controller counters of the campaign.
    {
        std::uint64_t det = 0;
        std::uint64_t all = 0;
        std::uint64_t sampleTasks = 0;
        std::uint64_t resamples = 0;
        for (const BatchResult &r : run.results) {
            if (!r.sampled)
                continue;
            det += r.sampled->result.detailedInsts;
            all += r.sampled->result.detailedInsts +
                   r.sampled->result.fastInsts;
            sampleTasks += r.sampled->stats.sampleTasks;
            resamples += r.sampled->stats.resamples;
        }
        add("sampling.detail_fraction", ratio(det, all), "ratio", 0);
        add("sampling.sample_tasks", double(sampleTasks), "count", 0);
        add("sampling.resamples", double(resamples), "count", 0);
    }

    // sim: sampled runs of the workload's jobs, up to ~1 s.
    std::vector<const JobSpec *> sampledJobs;
    for (const JobSpec *j : sortedJobs(w))
        if (j->mode == BatchMode::Sampled && !j->isSlice())
            sampledJobs.push_back(j);
    {
        ms.clear();
        double total = 0.0;
        std::map<std::string, trace::TaskTrace> memo;
        for (const JobSpec *j : sampledJobs) {
            if (ms.size() >= 16 || total > 1.0)
                break;
            auto it = memo.find(sourceKey(*j));
            if (it == memo.end())
                it = memo.emplace(sourceKey(*j),
                                  work::generateWorkload(
                                      j->workload, j->workloadParams))
                         .first;
            const Clock::time_point t0 = Clock::now();
            (void)harness::runSampled(it->second, j->spec, j->sampling);
            const double s = since(t0);
            total += s;
            ms.push_back(s * 1e3);
        }
        add("sim.sampled_ms_per_job", median(ms), "ms", ms.size());
    }

    // sim.checkpoint: the first sampled job's boundaries.
    {
        std::uint64_t bytes = 0;
        std::uint64_t boundaries = 0;
        double encodeSecs = 0.0;
        std::vector<std::string> kept;
        if (!sampledJobs.empty()) {
            const JobSpec &j = *sampledJobs.front();
            const trace::TaskTrace tr =
                work::generateWorkload(j.workload, j.workloadParams);
            sim::CheckpointHooks hooks;
            hooks.record = [&](sim::Checkpoint &&cp) {
                const Clock::time_point t0 = Clock::now();
                std::string blob = sim::serializeCheckpoint(cp);
                encodeSecs += since(t0);
                bytes += blob.size();
                ++boundaries;
                if (kept.size() < 4)
                    kept.push_back(std::move(blob));
            };
            (void)harness::runSampled(tr, j.spec, j.sampling, &hooks);
        }
        std::uint64_t keptBytes = 0;
        double decodeSecs = 0.0;
        for (const std::string &blob : kept) {
            const Clock::time_point t0 = Clock::now();
            const sim::Checkpoint cp =
                sim::deserializeCheckpoint(blob, "probe");
            decodeSecs += since(t0);
            keptBytes += blob.size();
            if (cp.state.empty())
                warn("empty checkpoint state");
        }
        add("sim.checkpoint.bytes_per_boundary",
            boundaries > 0 ? double(bytes) / double(boundaries) : 0.0, "B",
            boundaries);
        add("sim.checkpoint.encode_mb_s",
            encodeSecs > 0.0 ? double(bytes) / encodeSecs / 1e6 : 0.0, "MB/s",
            boundaries);
        add("sim.checkpoint.decode_mb_s",
            decodeSecs > 0.0 ? double(keptBytes) / decodeSecs / 1e6 : 0.0,
            "MB/s", kept.size());
    }

    // sim.result_io and the cache: the campaign's own sampled outcomes.
    std::vector<const BatchResult *> outcomes;
    for (const BatchResult &r : run.results)
        if (r.sampled && outcomes.size() < 256)
            outcomes.push_back(&r);
    {
        std::vector<double> enc;
        std::vector<double> dec;
        for (const BatchResult *r : outcomes) {
            Clock::time_point t0 = Clock::now();
            const std::string blob =
                encode(*r->sampled, &sim::serializeSampledOutcome);
            enc.push_back(since(t0) * 1e6);
            t0 = Clock::now();
            std::istringstream in(blob, std::ios::binary);
            const harness::SampledOutcome o =
                sim::deserializeSampledOutcome(in, "probe");
            dec.push_back(since(t0) * 1e6);
            if (o.result.totalCycles != r->sampled->result.totalCycles)
                warn("result_io probe: decode mismatch");
        }
        add("sim.result_io.encode_us", median(enc), "us", enc.size());
        add("sim.result_io.decode_us", median(dec), "us", dec.size());
    }
    {
        harness::ResultCacheOptions copt;
        copt.dir = w.freshDir("probe-cache").string();
        std::vector<double> storeUs;
        std::vector<double> lookupUs;
        harness::ResultCacheStats probeStats;
        {
            harness::ResultCache cache(copt);
            std::vector<std::string> keys;
            for (const BatchResult *r : outcomes) {
                keys.push_back(harness::jobSpecDigest(w.plan().jobs[r->index]));
                const Clock::time_point t0 = Clock::now();
                cache.storeSampled(keys.back(), *r->sampled);
                storeUs.push_back(since(t0) * 1e6);
            }
            for (const std::string &key : keys) {
                const Clock::time_point t0 = Clock::now();
                const bool hit = cache.lookupSampled(key).has_value();
                lookupUs.push_back(since(t0) * 1e6);
                if (!hit)
                    warn("cache probe: stored entry missed");
            }
            probeStats = cache.stats();
        }
        fs::remove_all(copt.dir);
        add("harness.cache.lookup_us", median(lookupUs), "us",
            lookupUs.size());
        add("harness.cache.store_us", median(storeUs), "us", storeUs.size());
        add("harness.cache.hit_ratio",
            ratio(run.cache.hits, run.cache.hits + run.cache.misses), "ratio",
            run.cache.hits + run.cache.misses);
        add("harness.cache.failed_stores",
            double(run.cache.failedStores + probeStats.failedStores), "count",
            0);
    }
    return m;
}

std::pair<double, std::size_t>
dispatchOverhead(Workload &w)
{
    harness::ResultCache *warm = w.warmCache();
    std::unique_ptr<harness::ResultCache> own;
    if (warm == nullptr) {
        harness::ResultCacheOptions copt;
        copt.dir = w.freshDir("overhead-cache").string();
        own = std::make_unique<harness::ResultCache>(copt);
        harness::BatchOptions opt;
        opt.jobs = w.env().threads;
        opt.cache = own.get();
        (void)runBatch(w.plan(), opt); // cold: warms every entry
        warm = own.get();
    }
    const std::size_t runners = dispatchRunners(w.env().threads);
    harness::BatchOptions opt;
    opt.jobs = runners;
    opt.cache = warm;
    std::vector<double> batch;
    std::vector<double> campaign;
    constexpr std::size_t kPairs = 3;
    for (std::size_t i = 0; i < kPairs; ++i) {
        batch.push_back(runBatch(w.plan(), opt).seconds);
        campaign.push_back(
            runDispatch(w.plan(), warm, runners, w.freshDir("overhead-spool"))
                .seconds);
    }
    return {median(campaign) - median(batch), kPairs};
}

} // namespace taskbench
