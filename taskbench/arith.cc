#include "arith.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

namespace taskbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TailPick
tailPercentile(std::vector<double> v)
{
    TailPick pick;
    if (v.empty())
        return pick;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Tenths of a percent keep the rank arithmetic exact.
    constexpr std::uint64_t kLadder[] = {990, 950, 900, 750, 500};
    for (const std::uint64_t p : kLadder) {
        const std::size_t k = static_cast<std::size_t>(
            (p * std::uint64_t(n) + 999) / 1000);
        const std::size_t rank = std::max<std::size_t>(k, 1);
        pick.percentile = double(p) / 10.0;
        pick.value = v[rank - 1];
        pick.beyond = n - rank;
        if (pick.beyond >= 10)
            break;
    }
    return pick;
}

PairedErrors
pairErrors(const std::vector<CyclesRow> &rows)
{
    std::map<std::string, std::uint64_t> refs;
    PairedErrors out;
    for (const CyclesRow &r : rows) {
        if (!r.reference)
            continue;
        const auto [it, fresh] = refs.emplace(r.key, r.cycles);
        if (!fresh && it->second != r.cycles)
            ++out.conflicting;
    }
    for (const CyclesRow &r : rows) {
        if (r.reference)
            continue;
        const auto it = refs.find(r.key);
        if (it == refs.end() || it->second == 0) {
            ++out.unpaired;
            continue;
        }
        const double ref = double(it->second);
        out.errorsPct.push_back(100.0 * std::fabs(double(r.cycles) - ref) /
                                ref);
    }
    return out;
}

double
parallelEfficiency(double sumJobSeconds, double campaignSeconds,
                   std::size_t threads)
{
    if (campaignSeconds <= 0.0 || threads == 0)
        return 0.0;
    return sumJobSeconds / (campaignSeconds * double(threads));
}

std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 && std::size_t(s.parent) < spans.size())
            children[std::size_t(s.parent)].emplace_back(s.start, s.end);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : kids) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(b, s.end));
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

namespace {

struct Checker
{
    std::ostream &log;
    int failures = 0;

    void
    near(const char *what, double got, double want)
    {
        if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
            log << "self-test " << what << ": got " << got << ", want "
                << want << "\n";
            ++failures;
        }
    }
};

std::vector<double>
oneToN(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // reversed: sorting is tested
        v.push_back(double(i));
    return v;
}

} // namespace

int
runSelfTests(std::ostream &log)
{
    Checker c{log};

    c.near("median odd", median({3, 1, 2}), 2);
    c.near("median even", median({4, 1, 3, 2}), 2.5);
    c.near("median empty", median({}), 0);

    // 1000 samples: p99 leaves exactly 10 beyond; 100000 samples stop
    // at the top rung, p99.
    TailPick t = tailPercentile(oneToN(1000));
    c.near("tail n=1000 percentile", t.percentile, 99);
    c.near("tail n=1000 value", t.value, 990);
    c.near("tail n=1000 beyond", double(t.beyond), 10);
    t = tailPercentile(oneToN(100000));
    c.near("tail n=100000 percentile", t.percentile, 99);
    c.near("tail n=100000 beyond", double(t.beyond), 1000);
    t = tailPercentile(oneToN(200));
    c.near("tail n=200 percentile", t.percentile, 95);
    c.near("tail n=200 value", t.value, 190);
    t = tailPercentile(oneToN(109));
    c.near("tail n=109 percentile", t.percentile, 90);
    c.near("tail n=109 beyond", double(t.beyond), 10);
    t = tailPercentile(oneToN(50));
    c.near("tail n=50 percentile", t.percentile, 75);
    c.near("tail n=50 value", t.value, 38);
    t = tailPercentile(oneToN(19));
    c.near("tail n=19 falls back to p50", t.percentile, 50);
    c.near("tail n=19 beyond", double(t.beyond), 9);

    // Two keys, one reference each; order of rows is irrelevant.
    const PairedErrors e = pairErrors({{"a", false, 110},
                                       {"a", true, 100},
                                       {"b", true, 200},
                                       {"a", false, 95},
                                       {"b", false, 150},
                                       {"c", false, 10}});
    c.near("pair count", double(e.errorsPct.size()), 3);
    if (e.errorsPct.size() == 3) {
        c.near("pair a1", e.errorsPct[0], 10);
        c.near("pair a2", e.errorsPct[1], 5);
        c.near("pair b", e.errorsPct[2], 25);
    }
    c.near("pair unpaired", double(e.unpaired), 1);
    c.near("pair conflicting",
           double(pairErrors({{"a", true, 1}, {"a", true, 2}}).conflicting),
           1);

    c.near("efficiency", parallelEfficiency(6.0, 2.0, 4), 0.75);
    c.near("efficiency zero campaign", parallelEfficiency(1.0, 0.0, 4), 0);

    // root [0,10] > job [1,9] > {gen [1,2], sim [2,6] > {enc [3,4]},
    // store [5.5,7] overlapping sim}; a second root-level job [9,10].
    const std::vector<Span> spans = {
        {"root", 0, 10, -1, kNoJob}, {"job", 1, 9, 0, 0},
        {"gen", 1, 2, 1, 0},         {"sim", 2, 6, 1, 0},
        {"enc", 3, 4, 3, 0},         {"store", 5.5, 7, 1, 0},
        {"job", 9, 10, 0, 1}};
    const std::map<std::string, double> self = selfTimes(spans);
    c.near("self root", self.at("root"), 1);
    c.near("self job", self.at("job"), 2 + 1);
    c.near("self gen", self.at("gen"), 1);
    c.near("self sim", self.at("sim"), 3);
    c.near("self enc", self.at("enc"), 1);
    c.near("self store", self.at("store"), 1.5);
    double sum = 0.0;
    for (const auto &[name, s] : self)
        sum += s;
    // Overlap of sim and store is counted in both, by 0.5 s.
    c.near("self sum", sum, 10.5);

    return c.failures;
}

} // namespace taskbench
