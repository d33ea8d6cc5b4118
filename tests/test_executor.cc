/**
 * @file
 * Tests of harness::Executor's trace contract: one Executor built
 * with `--trace-out`/`--trace-stats` feeds every plan it runs into
 * one Chrome trace document and one statistics CSV, closed when the
 * Executor is destroyed — and a `--workers=2` local campaign writes
 * byte-identical files.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "harness/executor.hh"

namespace tp::harness {
namespace {

namespace fs = std::filesystem;

/** Minimal recursive-descent JSON validator (RFC 8259 grammar). */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    /** @return whether the whole text is exactly one JSON value. */
    bool
    valid()
    {
        return value() && (skipWs(), pos_ == s_.size());
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                s_[pos_] == '\r' || s_[pos_] == '\t'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i, ++pos_) {
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
        }
        return false;
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool
    number()
    {
        if (s_[pos_] == '-')
            ++pos_;
        if (!digits())
            return false;
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        return true;
    }

    template <typename Member>
    bool
    sequence(char close, Member member)
    {
        if (eat(close))
            return true;
        do {
            if (!member())
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            ++pos_;
            return sequence('}', [this] {
                return string() && eat(':') && value();
            });
          case '[':
            ++pos_;
            return sequence(']', [this] { return value(); });
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsValidAndRejectsBrokenDocuments)
{
    for (const char *ok :
         {"{}", "[]", R"({"a":[1,-2.5e3,true,null,"x\"é"]})",
          " [ {\"k\" : false} ] \n"}) {
        EXPECT_TRUE(JsonChecker(ok).valid()) << ok;
    }
    for (const char *bad :
         {"", "{", "[1,]", R"({"a":1,})", "[1 2]", R"(["\x"])",
          "{\"traceEvents\":[\n{}", "[01.]", "{} {}"}) {
        EXPECT_FALSE(JsonChecker(bad).valid()) << bad;
    }
}

/** A small sampled plan whose job labels start with `prefix`. */
ExperimentPlan
tracePlan(const std::string &prefix, std::size_t jobs)
{
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    for (std::size_t i = 0; i < jobs; ++i) {
        JobSpec j;
        j.label = prefix + std::to_string(i);
        j.workload = i % 2 == 0 ? "histogram" : "vector-operation";
        j.workloadParams.scale = 0.02;
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 4;
        j.sampling = sampling::SamplingParams::periodic(100);
        j.mode = BatchMode::Sampled;
        plan.jobs.push_back(j);
    }
    return plan;
}

std::string
slurp(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle);
         at != std::string::npos; at = haystack.find(needle, at + 1))
        ++n;
    return n;
}

/** The trace JSON and stats CSV one Executor wrote. */
struct TraceFiles
{
    std::string json;
    std::string csv;
};

/**
 * Run plans "a" (two jobs) and "b" (one job) through one Executor
 * built from `--trace-out`/`--trace-stats` into `dir` plus `extra`
 * flags, and return the files once the Executor is destroyed.
 */
TraceFiles
tracedRun(const fs::path &dir, const std::vector<std::string> &extra)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<std::string> flags = {
        "prog", "--trace-out=" + (dir / "trace.json").string(),
        "--trace-stats=" + (dir / "stats.csv").string()};
    flags.insert(flags.end(), extra.begin(), extra.end());
    std::vector<const char *> argv;
    for (const std::string &f : flags)
        argv.push_back(f.c_str());
    const CliArgs args(static_cast<int>(argv.size()), argv.data(),
                       {workersCliOption(), traceOutCliOption(),
                        traceStatsCliOption()});
    {
        const Executor executor(args);
        EXPECT_EQ(executor.run(tracePlan("a", 2)).size(), 2u);
        EXPECT_EQ(executor.run(tracePlan("b", 1)).size(), 1u);
    }
    TraceFiles out{slurp(dir / "trace.json"), slurp(dir / "stats.csv")};
    fs::remove_all(dir);
    return out;
}

fs::path
testDir(const std::string &tag)
{
    return fs::path(testing::TempDir()) /
           ("tp_executor_" + tag + "_" + std::to_string(::getpid()));
}

TEST(ExecutorTrace, OneDocumentSpansEveryPlanItRuns)
{
    const TraceFiles files = tracedRun(testDir("inproc"), {});

    EXPECT_TRUE(JsonChecker(files.json).valid());
    // One trace process per job of both plans, in submission order.
    EXPECT_EQ(countOf(files.json, "\"process_name\""), 3u);
    const std::size_t a0 = files.json.find("\"job 0: a0\"");
    const std::size_t a1 = files.json.find("\"job 1: a1\"");
    const std::size_t b0 = files.json.find("\"job 0: b0\"");
    ASSERT_NE(a0, std::string::npos);
    ASSERT_NE(a1, std::string::npos);
    ASSERT_NE(b0, std::string::npos);
    EXPECT_LT(a0, a1);
    EXPECT_LT(a1, b0);

    EXPECT_EQ(countOf(files.csv, "index,label,core,"), 1u)
        << "one stats header for the whole executor";
    EXPECT_EQ(files.csv.rfind("index,label,core,", 0), 0u);
    for (const char *row : {"\n0,a0,0,", "\n1,a1,0,", "\n0,b0,0,"})
        EXPECT_NE(files.csv.find(row), std::string::npos) << row;
}

TEST(ExecutorTrace, WorkersWriteByteIdenticalFiles)
{
    // --workers spawns taskpoint_dispatch next to the running binary.
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    const fs::path runner = self.parent_path() / "taskpoint_dispatch";
    if (ec || !fs::exists(runner))
        GTEST_SKIP() << "taskpoint_dispatch not found next to the "
                        "test binary ("
                     << runner << ")";

    const TraceFiles inProcess = tracedRun(testDir("inproc2"), {});
    const TraceFiles workers =
        tracedRun(testDir("workers"), {"--workers=2"});
    EXPECT_EQ(workers.json, inProcess.json);
    EXPECT_EQ(workers.csv, inProcess.csv);
}

} // namespace
} // namespace tp::harness
