/**
 * @file
 * fuzz workload: the differential fuzz campaign. Each op is one seed's
 * generated program run under the four design points with the
 * serializability oracle and the cross-config comparison, on a
 * two-worker campaign pool. A round is a fixed contiguous seed range;
 * a run attempts whole rounds, so failing seeds are the same share of
 * every run.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "check/fuzz_driver.hh"
#include "check/fuzz_interp.hh"
#include "check/oracle.hh"
#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "sim/campaign.hh"

namespace perfbench {

namespace {

using namespace tmsim;

/** Seeds per round. With the start in [1, 256] the range always holds
 *  seeds 262 and 633, the two that hit the tick limit today. */
constexpr std::uint64_t roundSeeds = 640;
constexpr std::uint64_t startChoices = 256;
constexpr int poolWorkers = 2;
constexpr int setupRepeats = 15;
/** Sizes the preallocated per-op storage; a faster host ends the run
 *  early, on a round boundary, when the planned rounds run out. */
constexpr double maxSeedsPerSecond = 1500;
/** The memory size FuzzInterp::run gives its machines. */
constexpr Addr fuzzMemBytes = 4ull * 1024 * 1024;

enum class Verdict : std::uint8_t
{
    Pass,
    TickLimit,
    Oracle,
    Divergence,
    Exception,
};

const char*
verdictName(Verdict v)
{
    switch (v) {
    case Verdict::Pass: return "pass";
    case Verdict::TickLimit: return "tick limit";
    case Verdict::Oracle: return "oracle failure";
    case Verdict::Divergence: return "divergence";
    case Verdict::Exception: return "exception";
    }
    return "?";
}

Verdict
classify(const std::string& message)
{
    if (message.rfind("simulation hit the tick limit", 0) == 0)
        return Verdict::TickLimit;
    if (message.find("cross-config divergence") != std::string::npos ||
        message.find("invariant snapshot shape differs") !=
            std::string::npos)
        return Verdict::Divergence;
    return Verdict::Oracle;
}

/** Host time of the traced path's layers within one op, in ns. */
struct LayerTimes
{
    double construct = 0;
    double attach = 0;
    double run = 0;
    double finish = 0;
    double oracle = 0;
    std::uint64_t cpus = 0;
    SimCounts counts;

    void add(const LayerTimes& o)
    {
        construct += o.construct;
        attach += o.attach;
        run += o.run;
        finish += o.finish;
        oracle += o.oracle;
        cpus += o.cpus;
        counts.add(o.counts);
    }
};

/** Sums over merged ops; a run keeps only those of whole rounds. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t ticks = 0;
    double failedUs = 0;
    double mergeNs = 0;
    LayerTimes layers;

    void add(const Tally& o)
    {
        attempted += o.attempted;
        failed += o.failed;
        ticks += o.ticks;
        failedUs += o.failedUs;
        mergeNs += o.mergeNs;
        layers.add(o.layers);
    }
};

struct SeedResult
{
    Verdict verdict = Verdict::Pass;
    std::uint64_t ticks = 0;
    std::string config;
    std::string message;
    std::unique_ptr<LayerTimes> layers; ///< traced path only
};

/** The untraced op: the library's runProgramAllConfigs itself. */
SeedResult
runPlain(const FuzzProgram& prog)
{
    StatsRegistry reg;
    const FuzzFailure f =
        runProgramAllConfigs(prog, FuzzInterp::defaultMaxTicks, &reg);
    SeedResult r;
    r.ticks = reg.value("sim.ticks");
    if (f.failed) {
        r.verdict = classify(f.message);
        r.config = f.config;
        r.message = f.message;
    }
    return r;
}

/**
 * The traced op: runProgramAllConfigs taken apart at its module
 * boundaries (Machine, FuzzInterp::attach/threadBody/finish, checkRun)
 * with a span around each call. Same configs, same order, same first-
 * failure-wins rule, so it must reach the same verdicts and totals.
 */
SeedResult
runTraced(const FuzzProgram& prog)
{
    SeedResult r;
    r.layers = std::make_unique<LayerTimes>();
    LayerTimes& lt = *r.layers;
    std::vector<std::pair<Addr, Word>> ref;
    std::string refName;
    bool haveRef = false;

    for (const FuzzConfig& cfg : fuzzConfigs(prog)) {
        FuzzInterp interp(prog, cfg.htm);
        MachineConfig mc;
        mc.numCpus = prog.numThreads();
        mc.htm = cfg.htm;
        mc.memBytes = fuzzMemBytes;

        const Clock::time_point t0 = Clock::now();
        Machine m(mc);
        const Clock::time_point t1 = Clock::now();
        interp.attach(m);
        std::vector<std::unique_ptr<TxThread>> threads;
        threads.reserve(static_cast<std::size_t>(prog.numThreads()));
        for (int i = 0; i < prog.numThreads(); ++i)
            threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
        for (int i = 0; i < prog.numThreads(); ++i) {
            TxThread* t = threads[static_cast<std::size_t>(i)].get();
            m.spawn(i, [&interp, t, i](Cpu&) -> SimTask {
                co_await interp.threadBody(*t, i);
            });
        }
        const Clock::time_point t2 = Clock::now();
        std::string escaped;
        try {
            m.run(FuzzInterp::defaultMaxTicks);
        } catch (const FatalError&) {
            throw;
        } catch (const std::exception& e) {
            escaped = e.what();
        }
        const Clock::time_point t3 = Clock::now();
        lt.counts.addMachine(m);
        r.ticks += m.stats().value("sim.ticks");
        const ObservedRun run =
            interp.finish(m, !m.allDone() && escaped.empty());
        const Clock::time_point t4 = Clock::now();
        const OracleVerdict v = checkRun(prog, run);
        const Clock::time_point t5 = Clock::now();

        lt.construct += nsBetween(t0, t1);
        lt.attach += nsBetween(t1, t2);
        lt.run += nsBetween(t2, t3);
        lt.finish += nsBetween(t3, t4);
        lt.oracle += nsBetween(t4, t5);
        lt.cpus += static_cast<std::uint64_t>(mc.numCpus);

        if (!escaped.empty()) {
            r.verdict = Verdict::Exception;
            r.config = cfg.name;
            r.message = "exception escaped simulation: " + escaped;
            return r;
        }
        if (!v.ok) {
            r.verdict = classify(v.message);
            r.config = cfg.name;
            r.message = v.message;
            return r;
        }
        if (!haveRef) {
            ref = run.finalInvariant;
            refName = cfg.name;
            haveRef = true;
            continue;
        }
        if (run.finalInvariant != ref) {
            r.verdict = Verdict::Divergence;
            r.config = cfg.name;
            r.message = "cross-config divergence from " + refName;
            return r;
        }
    }
    return r;
}

struct SeedRef
{
    Verdict verdict = Verdict::Pass;
    std::uint64_t ticks = 0;
    bool operator==(const SeedRef&) const = default;
};

/** Run @p programs once on a pool of @p workers through the untraced
 *  path and return each seed's verdict and simulated ticks. */
std::vector<SeedRef>
referencePass(const std::vector<FuzzProgram>& programs, int workers)
{
    std::vector<SeedRef> out(programs.size());
    CampaignOptions co;
    co.jobs = workers;
    co.quiet = true;
    runCampaign<SeedResult>(
        programs.size(), co,
        [&](std::size_t i) { return runPlain(programs[i]); },
        [&](std::size_t i, SeedResult&& r) {
            out[i] = {r.verdict, r.ticks};
            return true;
        });
    return out;
}

std::vector<FuzzProgram>
generateRange(std::uint64_t first, std::uint64_t count)
{
    std::vector<FuzzProgram> programs;
    programs.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k)
        programs.push_back(generateProgram(first + k));
    return programs;
}

} // namespace

Report
runFuzz(const Options& opt)
{
    Report rep;
    const std::uint64_t first = 1 + opt.seed % startChoices;
    std::printf("# fuzz: seeds %llu..%llu per round, %d campaign workers, "
                "4 design points per seed, no shrinking\n",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(first + roundSeeds - 1),
                poolWorkers);

    // --- set-up: program generation and a worker-pool start, repeated
    // so the reported figure is a median ---
    std::vector<FuzzProgram> programs;
    std::vector<double> setupS, genS;
    for (int rep_i = 0; rep_i < setupRepeats; ++rep_i) {
        const Clock::time_point t0 = Clock::now();
        programs = generateRange(first, roundSeeds);
        const Clock::time_point t1 = Clock::now();
        CampaignOptions warm;
        warm.jobs = poolWorkers;
        warm.quiet = true;
        CampaignPool::run(
            poolWorkers, warm, [](std::size_t) {},
            [](std::size_t) { return true; });
        const Clock::time_point t2 = Clock::now();
        setupS.push_back(secondsBetween(t0, t2));
        genS.push_back(secondsBetween(t0, t1));
    }
    const std::size_t maxRounds =
        static_cast<std::size_t>(opt.seconds * maxSeedsPerSecond /
                                 static_cast<double>(roundSeeds)) +
        2;
    const std::size_t maxJobs = maxRounds * roundSeeds;
    std::vector<double> latUs(maxJobs, 0.0);
    std::vector<SeedRef> firstRound(roundSeeds);
    std::vector<Clock::time_point> roundEnd;
    roundEnd.reserve(maxRounds);

    // The traced run first takes the untraced path on one worker: every
    // traced op must match it, which checks traced-vs-untraced and
    // 1-vs-2-worker agreement at once.
    std::vector<SeedRef> untraced;
    if (opt.trace)
        untraced = referencePass(programs, 1);

    // --- timed region ---
    Tally total, round;
    CampaignOptions co;
    co.jobs = poolWorkers;
    co.quiet = true;
    const Clock::time_point tStart = Clock::now();
    const CampaignResult cres = runCampaign<SeedResult>(
        maxJobs, co,
        [&](std::size_t i) {
            const Clock::time_point t0 = Clock::now();
            SeedResult r = opt.trace ? runTraced(programs[i % roundSeeds])
                                     : runPlain(programs[i % roundSeeds]);
            latUs[i] = usBetween(t0, Clock::now());
            return r;
        },
        [&](std::size_t i, SeedResult&& r) {
            const Clock::time_point m0 = Clock::now();
            const std::size_t k = i % roundSeeds;
            const std::uint64_t seed = first + k;
            const SeedRef got{r.verdict, r.ticks};
            ++round.attempted;
            round.ticks += r.ticks;
            if (r.verdict != Verdict::Pass) {
                ++round.failed;
                round.failedUs += latUs[i];
            }
            if (i < roundSeeds) {
                firstRound[k] = got;
                if (r.verdict != Verdict::Pass) {
                    std::printf("failed op: seed %llu: %s under %s: %s\n",
                                static_cast<unsigned long long>(seed),
                                verdictName(r.verdict), r.config.c_str(),
                                r.message.c_str());
                }
            } else if (!(firstRound[k] == got)) {
                rep.broken("seed " + std::to_string(seed) +
                           " changed its verdict or simulated ticks "
                           "between rounds");
            }
            if (opt.trace) {
                if (!(untraced[k] == got)) {
                    rep.broken("traced path disagrees with the untraced "
                               "1-worker path on seed " +
                               std::to_string(seed));
                }
                round.layers.add(*r.layers);
            }
            const Clock::time_point m1 = Clock::now();
            round.mergeNs += nsBetween(m0, m1);
            if (k + 1 < roundSeeds)
                return true;
            roundEnd.push_back(m1);
            total.add(round);
            round = Tally{};
            return secondsBetween(tStart, m1) < opt.seconds;
        });
    if (cres.failed)
        rep.broken("campaign job " + std::to_string(cres.failedJob) +
                   " failed: " + cres.message);

    // Only whole rounds count: a partial last round (the planned jobs
    // ran out mid-round, or a job failed) is left out of every figure.
    const std::size_t rounds = roundEnd.size();
    const std::size_t ops = rounds * roundSeeds;
    if (rounds == 0) {
        rep.broken("no whole round completed");
        return rep;
    }
    rep.attempted = total.attempted;
    rep.failed = total.failed;
    std::vector<double> roundRate;
    for (std::size_t r = 0; r < rounds; ++r) {
        const Clock::time_point from = r == 0 ? tStart : roundEnd[r - 1];
        roundRate.push_back(static_cast<double>(roundSeeds) /
                            secondsBetween(from, roundEnd[r]));
    }
    std::printf("# fuzz: %zu rounds of %llu seeds in %.2f s\n", rounds,
                static_cast<unsigned long long>(roundSeeds),
                secondsBetween(tStart, roundEnd.back()));
    printQuartiles("ops/s of each round", roundRate);
    printQuartiles("set-up seconds of each repeat", setupS);

    const double nOps = static_cast<double>(ops);
    if (!opt.trace) {
        rep.add("setup_s", median(setupS), "s");
        rep.add("ops_per_s", median(roundRate), "1/s");
        rep.add("op_p50_us", quantileInPlace(latUs, ops, 0.50), "us");
        rep.add("op_p90_us", quantileInPlace(latUs, ops, 0.90), "us");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.add("sim_cycles_per_op", static_cast<double>(total.ticks) / nOps,
                "cycles");
        return rep;
    }
    std::printf("# fuzz: traced path matched the untraced 1-worker path "
                "on %zu ops\n",
                ops);
    rep.add("core.construct_us", total.layers.construct / 1e3 / nOps, "us");
    rep.add("core.construct_us_per_cpu",
            total.layers.construct / 1e3 / static_cast<double>(total.layers.cpus),
            "us");
    rep.add("core.run_us", total.layers.run / 1e3 / nOps, "us");
    addSimCountsPerOp(rep, total.layers.counts, nOps);
    rep.add("sim.ns_per_event",
            total.layers.run / static_cast<double>(total.layers.counts.v[1]), "ns");
    rep.add("sim.campaign_merge_us", total.mergeNs / 1e3 / nOps, "us");
    rep.add("check.gen_us",
            median(genS) * 1e6 / static_cast<double>(roundSeeds), "us");
    rep.add("check.attach_us", total.layers.attach / 1e3 / nOps, "us");
    rep.add("check.finish_us", total.layers.finish / 1e3 / nOps, "us");
    rep.add("check.oracle_us", total.layers.oracle / 1e3 / nOps, "us");
    rep.add("check.failed_op_s",
            total.failedUs / 1e6 / static_cast<double>(rounds), "s");
    rep.add("trace.ops_per_s", median(roundRate), "1/s");
    return rep;
}

bool
selftestFuzz()
{
    bool ok = true;
    auto expect = [&](bool cond, const char* what) {
        std::printf("selftest fuzz: %s: %s\n", what, cond ? "ok" : "FAILED");
        ok = ok && cond;
    };

    const std::vector<FuzzProgram> programs = generateRange(1, 24);
    const std::vector<SeedRef> one = referencePass(programs, 1);
    const std::vector<SeedRef> two = referencePass(programs, 2);
    bool traced = true;
    bool clean = true;
    for (std::size_t k = 0; k < programs.size(); ++k) {
        const SeedResult t = runTraced(programs[k]);
        traced = traced && SeedRef{t.verdict, t.ticks} == one[k];
        clean = clean && one[k].verdict == Verdict::Pass;
    }
    expect(clean, "seeds 1..24 pass the oracle and the comparison");
    expect(one == two, "1 and 2 campaign workers give identical totals");
    expect(traced, "traced path matches the untraced path");

    FuzzProgram injected = generateProgram(1);
    injected.injectHiddenStoreAfter = 0;
    const SeedResult bad = runPlain(injected);
    expect(bad.verdict != Verdict::Pass,
           "an injected hidden store is counted as a failed op");
    const SeedResult badTraced = runTraced(injected);
    expect(badTraced.verdict == bad.verdict,
           "the traced path fails the injected program the same way");
    return ok;
}

} // namespace perfbench
