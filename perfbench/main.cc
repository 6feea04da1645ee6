/**
 * @file
 * Entry point of the end-to-end benchmark.
 *
 *   tmsim_perfbench --workload fuzz|jbb|stm --seed N --seconds S --trace 0|1
 *   tmsim_perfbench --selftest
 *
 * A run prints a provenance header, one line per failed op, every
 * metric by name and unit, and as its last line one JSON object with
 * the keys correct, attempted, failed and metrics. --trace 0 reports
 * the end-to-end metrics, --trace 1 the per-layer split.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

namespace {

using namespace perfbench;

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: tmsim_perfbench --workload fuzz|jbb|stm "
                 "--seed N --seconds S --trace 0|1\n"
                 "       tmsim_perfbench --selftest\n");
}

int
selftest()
{
    bool ok = true;
    ok = selftestFuzz() && ok;
    ok = selftestJbb() && ok;
    ok = selftestStm() && ok;
    std::printf("selftest: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    tmsim::defaultLogContext().quiet = true;

    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selftest();
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char* val = argv[++i];
        if (arg == "--workload") {
            opt.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            opt.seed = tmsim::parseU64(val, "--seed");
        } else if (arg == "--seconds") {
            opt.seconds = tmsim::parseInt(val, "--seconds", 1, 120);
        } else if (arg == "--trace") {
            opt.trace = tmsim::parseInt(val, "--trace", 0, 1) == 1;
        } else {
            usage();
            return 2;
        }
    }
    if (!haveWorkload) {
        usage();
        return 2;
    }

    Report (*run)(const Options&) = nullptr;
    if (opt.workload == "fuzz")
        run = runFuzz;
    else if (opt.workload == "jbb")
        run = runJbb;
    else if (opt.workload == "stm")
        run = runStm;
    if (!run) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        usage();
        return 2;
    }

    std::printf("# tmsim perfbench: workload %s, seed %llu, %d s, trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("# host: nproc %u, cpu %s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str());
    std::printf("# build: %s, %s\n", compiler().c_str(),
                PERFBENCH_BUILD_TYPE);
    std::fflush(stdout);

    Report rep;
    try {
        rep = run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("# ops attempted %llu, failed %llu, checks %s\n",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                rep.correct ? "passed" : "FAILED");

    const auto& wanted = opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::string json;
    for (const auto& [name, unit] : wanted) {
        double value = 0;
        bool found = false;
        for (const Metric& m : rep.metrics) {
            if (m.name == name) {
                value = m.value;
                found = true;
            }
        }
        if (!found && !opt.trace) {
            std::fprintf(stderr, "perfbench: workload reported no %s\n",
                         name.c_str());
            return 1;
        }
        if (!std::isfinite(value)) {
            rep.broken(name + " is not a finite number");
            value = 0;
        }
        std::printf("%-28s %.6f %s\n", name.c_str(), value, unit.c_str());
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", name.c_str(), value,
                      unit.c_str());
        json += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), json.c_str());
    return 0;
}
