/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line options, the
 * report every workload fills in, the metric name lists, and small
 * timing and statistics helpers. See README.md in this directory for
 * what each workload and metric means.
 */

#ifndef TMSIM_PERFBENCH_BENCH_HH
#define TMSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tmsim {
class Machine;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run of one workload found. */
struct Report
{
    /** False when a check that is not counted per op failed
     *  (conservation, determinism, traced-vs-untraced agreement). */
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a failed whole-run check and say why on stdout. */
    void broken(const std::string& why);
};

/** Metric names and units of the untraced run, in print order. */
const std::vector<std::pair<std::string, std::string>>& endToEndMetrics();

/** Metric names and units of the traced run, in print order. A layer
 *  that a workload does not exercise reads 0 on that workload. */
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/** Nearest-rank @p q quantile of the first @p n values of @p v.
 *  Reorders those values in place and allocates nothing, so it can run
 *  on preallocated latency storage without raising the peak RSS. */
double quantileInPlace(std::vector<double>& v, std::size_t n, double q);

/** Median of a small vector (copied). */
double median(std::vector<double> v);

/** Print "# <what>: min q1 median q3 max (n values)" of @p v, so a run
 *  shows how much its own rounds spread. */
void printQuartiles(const char* what, std::vector<double> v);

/** Cost of one Clock::now() call in ns (median of short batches). */
double clockReadNs();

/** Peak resident set of this process, in MB (VmHWM). */
double peakRssMb();

/**
 * Simulated event counts of finished machines, summed. The names are
 * the per-layer metric names; values are taken from each machine's
 * StatsRegistry and event queue, so they repeat exactly.
 */
struct SimCounts
{
    static constexpr int kinds = 15;
    static const char* const names[kinds];
    std::uint64_t v[kinds] = {};

    void addMachine(tmsim::Machine& m);
    void add(const SimCounts& o);
};

/** Write every SimCounts field, divided by @p ops, into @p r. */
void addSimCountsPerOp(Report& r, const SimCounts& c, double ops);

Report runFuzz(const Options& opt);
Report runJbb(const Options& opt);
Report runStm(const Options& opt);

/** Tiny end-to-end runs that also show each check can fail; return
 *  true when every expectation held. */
bool selftestFuzz();
bool selftestJbb();
bool selftestStm();

} // namespace perfbench

#endif // TMSIM_PERFBENCH_BENCH_HH
