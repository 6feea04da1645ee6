#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hh"

namespace perfbench {

void
Report::broken(const std::string& why)
{
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
}

const std::vector<std::pair<std::string, std::string>>&
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},         {"ops_per_s", "1/s"},
        {"op_p50_us", "us"},      {"op_p90_us", "us"},
        {"peak_rss_mb", "MB"},    {"sim_cycles_per_op", "cycles"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>>&
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"core.construct_us", "us"},
        {"core.construct_us_per_cpu", "us"},
        {"core.run_us", "us"},
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.ticks", "cycles"},
        {"sim.campaign_merge_us", "us"},
        {"check.gen_us", "us"},
        {"check.attach_us", "us"},
        {"check.finish_us", "us"},
        {"check.oracle_us", "us"},
        {"check.failed_op_s", "s"},
        {"workloads.init_us", "us"},
        {"workloads.verify_us", "us"},
        {"htm.commits", "count"},
        {"htm.rollbacks", "count"},
        {"htm.violations_taken", "count"},
        {"htm.lock_stalls", "count"},
        {"htm.eager_conflicts", "count"},
        {"htm.lazy_violations", "count"},
        {"htm.cm.escalations", "count"},
        {"htm.sig_filtered", "count"},
        {"htm.index_hits", "count"},
        {"mem.l1_misses", "count"},
        {"mem.l2_misses", "count"},
        {"bus.transfers", "count"},
        {"bus.busy_cycles", "cycles"},
        {"stm.begin_ns", "ns"},
        {"stm.load_ns", "ns"},
        {"stm.store_ns", "ns"},
        {"stm.validate_ns", "ns"},
        {"stm.commit_ns", "ns"},
        {"stm.handler_ns", "ns"},
        {"stm.lookup_p50_us", "us"},
        {"stm.transfer_p50_us", "us"},
        {"stm.open_p50_us", "us"},
        {"stm.starts", "count"},
        {"stm.commits", "count"},
        {"stm.retries", "count"},
        {"stm.lock_failures", "count"},
        {"stm.snapshot_extensions", "count"},
        {"stm.violations", "count"},
        {"stm.commits_per_start", "ratio"},
        {"stm.stats_bytes", "bytes"},
        {"trace.ops_per_s", "1/s"},
    };
    return m;
}

double
quantileInPlace(std::vector<double>& v, std::size_t n, double q)
{
    if (n == 0)
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(rank),
                     v.begin() + static_cast<long>(n));
    return v[rank];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
printQuartiles(const char* what, std::vector<double> v)
{
    if (v.empty())
        return;
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
        return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
    };
    std::printf("# %s: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g (%zu values)\n",
                what, v.front(), at(0.25), median(v), at(0.75), v.back(),
                v.size());
}

double
clockReadNs()
{
    constexpr int batches = 21, reads = 10000;
    std::vector<double> perRead;
    for (int b = 0; b < batches; ++b) {
        const Clock::time_point t0 = Clock::now();
        Clock::time_point last = t0;
        for (int i = 0; i < reads; ++i)
            last = Clock::now();
        perRead.push_back(nsBetween(t0, last) / reads);
    }
    return median(perRead);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

} // namespace perfbench
