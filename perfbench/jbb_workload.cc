/**
 * @file
 * jbb workload: production-shaped SPECjbb on the simulator. One op is
 * a complete experiment (Machine, Kernel::init, run, verify) at 16
 * simulated CPUs; successive ops cycle through the flat, closed, open
 * and hybrid variants, and a run attempts whole rounds of the four.
 */

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "workloads/harness.hh"
#include "workloads/kernel_specjbb.hh"

namespace perfbench {

namespace {

using namespace tmsim;

constexpr int variants = 4;
constexpr std::array<JbbVariant, variants> variantOrder = {
    JbbVariant::Flat, JbbVariant::ClosedNested, JbbVariant::OpenNested,
    JbbVariant::Hybrid};
constexpr std::array<const char*, variants> variantNames = {
    "flat", "closed", "open", "hybrid"};
constexpr int setupRepeats = 3;
/** Sizes the preallocated per-op storage (an op takes far longer). */
constexpr double maxOpsPerSecond = 100;
constexpr Addr baseMemBytes = 64ull * 1024 * 1024;

struct Shape
{
    int cpus = 16;
    JbbParams params;
};

Shape
productionShape()
{
    Shape s;
    s.cpus = 16;
    s.params.totalOps = 800;
    s.params.customers = 100000;
    s.params.stockItems = 100000;
    s.params.warehouses = 16;
    s.params.zipfS = 0.99;
    s.params.remotePct = 10;
    return s;
}

/** The simulated totals every repeat of one variant must reproduce. */
struct Totals
{
    std::uint64_t cycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t violationsTaken = 0;
    std::uint64_t busBusyCycles = 0;
    std::uint64_t instructions = 0;
    bool verified = false;
    bool operator==(const Totals&) const = default;
};

Totals
totalsOf(const RunResult& r)
{
    return {r.cycles,          r.commits,       r.rollbacks,
            r.violationsTaken, r.busBusyCycles, r.instructions,
            r.verified};
}

HtmConfig
jbbHtm()
{
    return HtmConfig::paperLazy();
}

Totals
runPlain(Kernel& k, const Shape& s)
{
    return totalsOf(runKernel(k, jbbHtm(), s.cpus, baseMemBytes));
}

struct LayerTimes
{
    double construct = 0;
    double init = 0;
    double run = 0;
    double verify = 0;
    std::uint64_t cpus = 0;
    SimCounts counts;
};

/** runKernel taken apart at its module boundaries, with a span around
 *  each call; it must reach the same totals as runKernel. */
Totals
runTraced(Kernel& k, const Shape& s, LayerTimes& lt)
{
    const HtmConfig htm = jbbHtm();
    MachineConfig cfg;
    cfg.numCpus = s.cpus;
    cfg.htm = htm;
    cfg.memBytes = std::max(baseMemBytes, k.memBytesHint());

    const Clock::time_point t0 = Clock::now();
    Machine m(cfg);
    const Clock::time_point t1 = Clock::now();
    k.init(m, s.cpus);
    const Clock::time_point t2 = Clock::now();
    std::vector<std::unique_ptr<TxThread>> threads;
    threads.reserve(static_cast<std::size_t>(s.cpus));
    for (int i = 0; i < s.cpus; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    const int n = s.cpus;
    for (int i = 0; i < n; ++i) {
        TxThread* t = threads[static_cast<std::size_t>(i)].get();
        m.spawn(i, [&k, t, i, n](Cpu&) -> SimTask {
            co_await k.thread(*t, i, n);
        });
    }
    const Clock::time_point t3 = Clock::now();
    Totals out;
    out.cycles = m.run();
    const Clock::time_point t4 = Clock::now();
    out.commits = m.stats().sum("cpu*.htm.commits") +
                  m.stats().sum("cpu*.htm.open_commits");
    out.rollbacks = m.stats().sum("cpu*.htm.rollbacks");
    out.violationsTaken = m.stats().sum("cpu*.violations_taken");
    out.busBusyCycles = m.stats().value("bus.busy_cycles");
    for (int i = 0; i < n; ++i)
        out.instructions += m.cpu(i).instret();
    lt.counts.addMachine(m);
    const Clock::time_point t5 = Clock::now();
    out.verified = k.verify(m, n);
    const Clock::time_point t6 = Clock::now();

    lt.construct += nsBetween(t0, t1);
    lt.init += nsBetween(t1, t2);
    lt.run += nsBetween(t3, t4);
    lt.verify += nsBetween(t5, t6);
    lt.cpus += static_cast<std::uint64_t>(n);
    return out;
}

std::vector<std::unique_ptr<SpecJbbKernel>>
makeKernels(const Shape& s)
{
    std::vector<std::unique_ptr<SpecJbbKernel>> ks;
    for (JbbVariant v : variantOrder)
        ks.push_back(std::make_unique<SpecJbbKernel>(v, s.params));
    return ks;
}

/** Set-up: build every variant's kernel and its initial image, which
 *  computes the Zipf tables and bulk-loads the B-trees, on a machine
 *  of the run's shape. */
void
setUp(std::vector<std::unique_ptr<SpecJbbKernel>>& ks, const Shape& s)
{
    ks = makeKernels(s);
    for (auto& k : ks) {
        MachineConfig cfg;
        cfg.numCpus = s.cpus;
        cfg.htm = jbbHtm();
        cfg.memBytes = std::max(baseMemBytes, k->memBytesHint());
        Machine m(cfg);
        k->init(m, s.cpus);
    }
}

} // namespace

Report
runJbb(const Options& opt)
{
    Report rep;
    const Shape shape = productionShape();
    const int firstVariant = static_cast<int>(opt.seed % variants);
    std::printf("# jbb: %d CPUs, %d warehouses, zipf %.2f, %d%% remote, "
                "%d customers, %d stock items, %d jbb ops per experiment; "
                "first variant %s\n",
                shape.cpus, shape.params.warehouses, shape.params.zipfS,
                shape.params.remotePct, shape.params.customers,
                shape.params.stockItems, shape.params.totalOps,
                variantNames[static_cast<std::size_t>(firstVariant)]);

    std::vector<std::unique_ptr<SpecJbbKernel>> kernels;
    std::vector<double> setupS;
    for (int i = 0; i < setupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        setUp(kernels, shape);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }
    const std::size_t maxOps =
        static_cast<std::size_t>(opt.seconds * maxOpsPerSecond) + variants;
    std::vector<double> latUs(maxOps, 0.0);
    std::vector<double> roundRate;
    roundRate.reserve(maxOps / variants + 1);
    std::array<Totals, variants> first{};
    std::array<bool, variants> seen{};

    // The traced run checks itself against one untraced round first.
    std::array<Totals, variants> untraced{};
    if (opt.trace) {
        for (int v = 0; v < variants; ++v)
            untraced[static_cast<std::size_t>(v)] =
                runPlain(*kernels[static_cast<std::size_t>(v)], shape);
    }

    LayerTimes layerSum;
    std::uint64_t totalCycles = 0;
    const Clock::time_point tStart = Clock::now();
    Clock::time_point roundStart = tStart;
    std::size_t ops = 0;
    while (ops + variants <= maxOps) {
        for (int j = 0; j < variants; ++j) {
            const std::size_t v =
                static_cast<std::size_t>((firstVariant + j) % variants);
            const Clock::time_point t0 = Clock::now();
            const Totals got =
                opt.trace ? runTraced(*kernels[v], shape, layerSum)
                          : runPlain(*kernels[v], shape);
            latUs[ops] = usBetween(t0, Clock::now());
            ++ops;
            ++rep.attempted;
            totalCycles += got.cycles;
            if (!got.verified) {
                ++rep.failed;
                std::printf("failed op: %s experiment %zu: Kernel::verify "
                            "rejected the final image\n",
                            variantNames[v], ops);
            }
            if (!seen[v]) {
                first[v] = got;
                seen[v] = true;
            } else if (!(got == first[v])) {
                rep.broken(std::string("a repeat of the ") +
                           variantNames[v] +
                           " variant gave different simulated totals");
            }
            if (opt.trace && !(got == untraced[v])) {
                rep.broken(std::string("traced path disagrees with "
                                       "runKernel on the ") +
                           variantNames[v] + " variant");
            }
        }
        const Clock::time_point now = Clock::now();
        roundRate.push_back(variants / secondsBetween(roundStart, now));
        roundStart = now;
        if (secondsBetween(tStart, now) >= opt.seconds)
            break;
    }
    std::printf("# jbb: %zu rounds of %d experiments in %.2f s\n",
                roundRate.size(), variants,
                secondsBetween(tStart, roundStart));
    printQuartiles("ops/s of each round", roundRate);
    printQuartiles("set-up seconds of each repeat", setupS);
    for (int v = 0; v < variants; ++v) {
        const Totals& t = first[static_cast<std::size_t>(v)];
        std::printf("# jbb %-6s cycles %llu commits %llu rollbacks %llu "
                    "violations %llu\n",
                    variantNames[static_cast<std::size_t>(v)],
                    static_cast<unsigned long long>(t.cycles),
                    static_cast<unsigned long long>(t.commits),
                    static_cast<unsigned long long>(t.rollbacks),
                    static_cast<unsigned long long>(t.violationsTaken));
    }

    const double nOps = static_cast<double>(ops);
    if (!opt.trace) {
        rep.add("setup_s", median(setupS), "s");
        rep.add("ops_per_s", median(roundRate), "1/s");
        rep.add("op_p50_us", quantileInPlace(latUs, ops, 0.50), "us");
        rep.add("op_p90_us", quantileInPlace(latUs, ops, 0.90), "us");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.add("sim_cycles_per_op", static_cast<double>(totalCycles) / nOps,
                "cycles");
        return rep;
    }
    std::printf("# jbb: traced path matched runKernel on %zu ops\n", ops);
    rep.add("core.construct_us", layerSum.construct / 1e3 / nOps, "us");
    rep.add("core.construct_us_per_cpu",
            layerSum.construct / 1e3 / static_cast<double>(layerSum.cpus),
            "us");
    rep.add("core.run_us", layerSum.run / 1e3 / nOps, "us");
    addSimCountsPerOp(rep, layerSum.counts, nOps);
    rep.add("sim.ns_per_event",
            layerSum.run / static_cast<double>(layerSum.counts.v[1]), "ns");
    rep.add("workloads.init_us", layerSum.init / 1e3 / nOps, "us");
    rep.add("workloads.verify_us", layerSum.verify / 1e3 / nOps, "us");
    rep.add("trace.ops_per_s", median(roundRate), "1/s");
    return rep;
}

bool
selftestJbb()
{
    Shape tiny;
    tiny.cpus = 4;
    tiny.params.totalOps = 80;
    tiny.params.customers = 2000;
    tiny.params.stockItems = 2000;
    tiny.params.warehouses = 2;
    tiny.params.zipfS = 0.99;
    tiny.params.remotePct = 10;
    bool ok = true;
    auto ks = makeKernels(tiny);
    for (std::size_t v = 0; v < ks.size(); ++v) {
        const Totals a = runPlain(*ks[v], tiny);
        const Totals b = runPlain(*ks[v], tiny);
        LayerTimes lt;
        const Totals c = runTraced(*ks[v], tiny, lt);
        const bool good = a.verified && a == b && a == c;
        std::printf("selftest jbb: %s verifies and repeats exactly on both "
                    "paths: %s\n",
                    variantNames[v], good ? "ok" : "FAILED");
        ok = ok && good;
    }
    return ok;
}

} // namespace perfbench
