/**
 * @file
 * stm workload: the native STM on two host threads, bypassing the
 * simulator. Each round builds a fresh StmRuntime and table, starts
 * both threads at a barrier, and runs a fixed number of ops per thread
 * in a closed loop over a Zipf-skewed table of word pairs:
 *
 *  - ~70% lookups: a read-only transaction over 8 pairs;
 *  - ~20% transfers: move one unit between two pairs inside a
 *    closed-nested child, writing both halves of each pair, with a
 *    commit handler registered in the outer transaction;
 *  - ~10% transfers that also bump a shared ticket in an open-nested
 *    transaction.
 *
 * A fixed op count per round makes the STM's per-commit stats vectors
 * reach the same size in every round, so the peak RSS repeats.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "stm/stm_runtime.hh"
#include "stm/stm_thread.hh"
#include "workloads/zipf.hh"

namespace perfbench {

namespace {

using namespace tmsim;

constexpr int stmThreads = 2;
constexpr std::uint64_t tablePairs = 16384;
constexpr double tableSkew = 0.99;
constexpr std::size_t opsPerThread = 200000;
constexpr Word initialUnits = 1000;
constexpr int lookupPairs = 8;
/** The traced run times the raw ISA calls of one op in this many. */
constexpr std::size_t spanSampleEvery = 8;

enum OpKind : std::uint8_t
{
    Lookup,
    Transfer,
    TransferOpen,
    opKinds,
};

constexpr const char* opKindNames[opKinds] = {"lookup", "transfer", "open"};

/** A pregenerated op: lookups read p[0..7]; transfers move p[0]->p[1]. */
struct StmOp
{
    OpKind kind = Lookup;
    std::uint16_t p[lookupPairs] = {};
};
static_assert(tablePairs <= 65536, "pair indices are 16-bit");

/** Halves of pair i sit in two separate arrays; the ticket has its own
 *  line. */
struct Layout
{
    Addr aBase = 0;
    Addr bBase = 0;
    Addr ticket = 0;
    Addr a(std::uint64_t i) const { return aBase + i * wordBytes; }
    Addr b(std::uint64_t i) const { return bBase + i * wordBytes; }
};

/** Raw ISA calls the traced run times. */
enum Span
{
    Begin,
    Load,
    Store,
    Validate,
    Commit,
    Handler,
    spanKinds,
};

/** Per-thread tallies; each on its own cache line. */
struct alignas(64) Tally
{
    std::uint64_t committedTransfers = 0;
    std::uint64_t handlerRuns = 0;
    std::uint64_t openRuns = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t notCommitted = 0;
    std::uint64_t retries = 0; ///< traced path only
    // Traced ISA spans: total ns and call counts.
    double ns[spanKinds] = {};
    std::uint64_t calls[spanKinds] = {};
    Clock::time_point end;
    std::string error;
};

/** Inputs and per-op storage, allocated once in set-up and reused by
 *  every round. */
struct Buffers
{
    std::vector<StmOp> ops;
    std::vector<double> latUs;
    std::vector<double> scratch;
};

struct RoundResult
{
    double setupS = 0;
    double wallS = 0;
    double p50Us = 0;
    double p90Us = 0;
    double classP50Us[opKinds] = {};
    double clockPerOp = 0;
    double statsBytes = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::uint64_t starts = 0;
    std::uint64_t commits = 0;
    std::uint64_t retries = 0;
    std::uint64_t lockFailures = 0;
    std::uint64_t snapshotExtensions = 0;
    std::uint64_t violations = 0;
    double spanNs[spanKinds] = {};
    std::uint64_t spanCalls[spanKinds] = {};
    std::vector<std::string> problems;
};

void
generateOps(std::vector<StmOp>& ops, std::size_t per_thread,
            std::uint64_t seed)
{
    const ZipfGen zipf(tablePairs, tableSkew);
    const std::uint64_t salt = hashMix64(seed);
    ops.resize(per_thread * stmThreads);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        StmOp& op = ops[i];
        const std::uint64_t h = hashMix64(i ^ salt);
        const std::uint64_t mix = h % 100;
        op.kind = mix < 70 ? Lookup : mix < 90 ? Transfer : TransferOpen;
        for (int j = 0; j < lookupPairs; ++j) {
            op.p[j] = static_cast<std::uint16_t>(
                zipf.drawAt(i * lookupPairs + static_cast<std::size_t>(j),
                            salt + 1));
        }
        if (op.kind != Lookup && op.p[1] == op.p[0])
            op.p[1] = static_cast<std::uint16_t>((op.p[0] + 1) % tablePairs);
    }
}

/** Move one unit from pair @p from to pair @p to if it has one, writing
 *  both halves of both pairs. Returns true if it saw unequal halves. */
template <typename LoadFn, typename StoreFn>
bool
transferBody(const Layout& l, std::uint64_t from, std::uint64_t to,
             LoadFn&& load, StoreFn&& store)
{
    const Word fa = load(l.a(from));
    const Word fb = load(l.b(from));
    const Word ta = load(l.a(to));
    const Word tb = load(l.b(to));
    const Word d = fa > 0 ? 1 : 0;
    store(l.a(from), fa - d);
    store(l.b(from), fb - d);
    store(l.a(to), ta + d);
    store(l.b(to), tb + d);
    return fa != fb || ta != tb;
}

template <typename LoadFn>
bool
lookupBody(const Layout& l, const StmOp& op, LoadFn&& load)
{
    bool bad = false;
    for (int j = 0; j < lookupPairs; ++j) {
        if (load(l.a(op.p[j])) != load(l.b(op.p[j])))
            bad = true;
    }
    return bad;
}

/** One op through StmThread::atomic/atomicOpen and the handler stacks. */
bool
plainOp(StmThread& th, const StmOp& op, const Layout& l, Tally& tl)
{
    bool bad = false;
    auto load = [](StmThread& t) {
        return [&t](Addr a) { return t.txLoad(a); };
    };
    auto store = [](StmThread& t) {
        return [&t](Addr a, Word v) { t.txStore(a, v); };
    };
    if (op.kind == Lookup) {
        const StmTxOutcome o = th.atomic(
            [&](StmThread& t) { bad = lookupBody(l, op, load(t)); });
        tl.notCommitted += o.committed() ? 0 : 1;
        return bad;
    }
    const StmTxOutcome o = th.atomic([&](StmThread& t) {
        t.onCommit([&tl](StmThread&, const std::vector<Word>&) {
            ++tl.handlerRuns;
        });
        t.atomic([&](StmThread& c) {
            bad = transferBody(l, op.p[0], op.p[1], load(c), store(c));
        });
        if (op.kind == TransferOpen) {
            t.atomicOpen([&](StmThread& o) {
                o.txStore(l.ticket, o.txLoad(l.ticket) + 1);
                o.onCommit([&tl](StmThread&, const std::vector<Word>&) {
                    ++tl.openRuns;
                });
            });
        }
    });
    if (o.committed())
        ++tl.committedTransfers;
    else
        ++tl.notCommitted;
    return bad;
}

/**
 * The traced op: the same transactions driven through the raw ISA
 * (xbegin/xbeginOpen, txLoad/txStore, xvalidate, xcommit) with a span
 * around each call. The retry loop mirrors StmThread::atomic; commit
 * handler bodies run between xvalidate and xcommit, where the STM's
 * own commit sequence runs them.
 */
class TracedIsa
{
  public:
    TracedIsa(StmThread& th, Tally& tl) : th(th), tl(tl) {}

    /** Time the calls of the next op or not. Spans are taken on a
     *  sample of ops so the clock reads do not swamp the op mix. */
    void sample(bool on) { timing = on; }

    Word load(Addr a)
    {
        const Clock::time_point t0 = start();
        const Word v = th.txLoad(a);
        note(Load, t0);
        return v;
    }

    void store(Addr a, Word v)
    {
        const Clock::time_point t0 = start();
        th.txStore(a, v);
        note(Store, t0);
    }

    template <typename Body, typename OnCommit>
    void tx(bool open, Body&& body, OnCommit&& on_commit)
    {
        int retries = 0;
        for (;;) {
            Clock::time_point t0 = start();
            if (open)
                th.xbeginOpen();
            else
                th.xbegin();
            note(Begin, t0);
            const int myLevel = th.depth();
            try {
                body();
                if (open || myLevel == 1) {
                    t0 = start();
                    th.xvalidate();
                    note(Validate, t0);
                    t0 = start();
                    on_commit();
                    note(Handler, t0);
                }
                t0 = start();
                th.xcommit();
                note(Commit, t0);
                return;
            } catch (const StmRollback& r) {
                if (r.targetLevel < myLevel)
                    throw;
                ++retries;
                ++tl.retries;
            }
            backoff(retries);
        }
    }

  private:
    Clock::time_point start() const
    {
        return timing ? Clock::now() : Clock::time_point{};
    }

    void note(Span s, Clock::time_point t0)
    {
        if (!timing)
            return;
        tl.ns[s] += nsBetween(t0, Clock::now());
        ++tl.calls[s];
    }

    /** StmThread's default capped exponential backoff. */
    void backoff(int retries)
    {
        const int cap = retries < 16 ? retries : 16;
        const std::uint64_t spins =
            th.rng().next() & ((std::uint64_t{1} << cap) - 1);
        for (std::uint64_t i = 0; i < spins; ++i) {
            if ((i & 0xFF) == 0xFF)
                std::this_thread::yield();
        }
    }

    StmThread& th;
    Tally& tl;
    bool timing = false;
};

bool
tracedOp(TracedIsa& isa, const StmOp& op, const Layout& l, Tally& tl)
{
    bool bad = false;
    auto load = [&isa](Addr a) { return isa.load(a); };
    auto store = [&isa](Addr a, Word v) { isa.store(a, v); };
    if (op.kind == Lookup) {
        isa.tx(false, [&] { bad = lookupBody(l, op, load); }, [] {});
        return bad;
    }
    isa.tx(
        false,
        [&] {
            isa.tx(
                false,
                [&] { bad = transferBody(l, op.p[0], op.p[1], load, store); },
                [] {});
            if (op.kind == TransferOpen) {
                isa.tx(
                    true,
                    [&] { store(l.ticket, load(l.ticket) + 1); },
                    [&tl] { ++tl.openRuns; });
            }
        },
        [&tl] { ++tl.handlerRuns; });
    ++tl.committedTransfers;
    return bad;
}

/**
 * One round: set-up (runtime, table fill, op generation), the two
 * threads' closed loops, then the checks. With @p inject, thread 0
 * makes one non-transactional store to a pair half before it starts.
 */
RoundResult
runRound(Buffers& buf, std::size_t per_thread, std::uint64_t seed,
         bool traced, bool inject)
{
    RoundResult res;
    const Clock::time_point s0 = Clock::now();
    auto rt = std::make_unique<StmRuntime>();
    Layout l;
    l.aBase = rt->allocate(tablePairs * wordBytes, 64);
    l.bBase = rt->allocate(tablePairs * wordBytes, 64);
    l.ticket = rt->allocate(64, 64);
    for (std::uint64_t i = 0; i < tablePairs; ++i) {
        rt->write(l.a(i), initialUnits);
        rt->write(l.b(i), initialUnits);
    }
    generateOps(buf.ops, per_thread, seed);
    res.setupS = secondsBetween(s0, Clock::now());

    std::vector<Tally> tally(stmThreads);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    auto worker = [&](int tid) {
        Tally& tl = tally[static_cast<std::size_t>(tid)];
        try {
            StmThread th(*rt, tid);
            TracedIsa isa(th, tl);
            if (inject && tid == 0)
                th.nakedStore(l.a(0), initialUnits + 1);
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            const std::size_t base = static_cast<std::size_t>(tid) * per_thread;
            for (std::size_t i = 0; i < per_thread; ++i) {
                const StmOp& op = buf.ops[base + i];
                isa.sample(i % spanSampleEvery == 0);
                const Clock::time_point t0 = Clock::now();
                const bool bad = traced ? tracedOp(isa, op, l, tl)
                                        : plainOp(th, op, l, tl);
                buf.latUs[base + i] = usBetween(t0, Clock::now());
                tl.mismatches += bad ? 1 : 0;
            }
        } catch (const StmHangError& e) {
            tl.error = e.what;
        } catch (const std::exception& e) {
            tl.error = e.what();
        } catch (...) {
            tl.error = "unexpected exception";
        }
        tl.end = Clock::now();
        if (!tl.error.empty())
            ready.fetch_add(1); // never leave the barrier waiting
    };
    rt->armWatchdog();
    std::vector<std::thread> threads;
    for (int t = 0; t < stmThreads; ++t)
        threads.emplace_back(worker, t);
    while (ready.load() < stmThreads)
        std::this_thread::yield();
    const Clock::time_point tGo = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads)
        t.join();
    Clock::time_point tEnd = tGo;
    for (const Tally& tl : tally)
        tEnd = std::max(tEnd, tl.end);
    res.wallS = secondsBetween(tGo, tEnd);

    // --- checks ---
    std::uint64_t transfers = 0, handlers = 0, opens = 0, notCommitted = 0;
    for (const Tally& tl : tally) {
        if (!tl.error.empty())
            res.problems.push_back("thread error: " + tl.error);
        transfers += tl.committedTransfers;
        handlers += tl.handlerRuns;
        opens += tl.openRuns;
        notCommitted += tl.notCommitted;
        res.failed += tl.mismatches;
        res.retries += tl.retries;
        for (int s = 0; s < spanKinds; ++s) {
            res.spanNs[s] += tl.ns[s];
            res.spanCalls[s] += tl.calls[s];
        }
    }
    Word sumA = 0, sumB = 0;
    std::uint64_t unequal = 0;
    for (std::uint64_t i = 0; i < tablePairs; ++i) {
        const Word a = rt->read(l.a(i)), b = rt->read(l.b(i));
        sumA += a;
        sumB += b;
        unequal += a != b ? 1 : 0;
    }
    const Word want = tablePairs * initialUnits;
    if (sumA != want || sumB != want)
        res.problems.push_back("table sum not conserved");
    if (unequal)
        res.problems.push_back(std::to_string(unequal) +
                               " pairs end with unequal halves");
    if (handlers != transfers)
        res.problems.push_back("commit-handler runs (" +
                               std::to_string(handlers) +
                               ") differ from committed transfers (" +
                               std::to_string(transfers) + ")");
    if (rt->read(l.ticket) != opens)
        res.problems.push_back("ticket differs from committed open "
                               "increments");
    if (notCommitted)
        res.problems.push_back("transactions ended without committing");

    // --- figures ---
    res.ops = per_thread * stmThreads;
    res.clockPerOp = static_cast<double>(rt->clock().now()) /
                     static_cast<double>(res.ops);
    for (int t = 0; t < stmThreads; ++t) {
        const StmThreadStats& st = rt->statsFor(t);
        res.starts += st.starts;
        res.commits += st.commits;
        if (!traced)
            res.retries += st.retries;
        res.lockFailures += st.lockFailures;
        res.snapshotExtensions += st.snapshotExtensions;
        res.violations += st.violations;
        res.statsBytes += static_cast<double>(
            (st.readSetSizes.capacity() + st.writeSetSizes.capacity()) *
            sizeof(std::uint64_t));
    }
    if (traced) {
        for (int k = 0; k < opKinds; ++k) {
            std::size_t n = 0;
            for (std::size_t i = 0; i < res.ops; ++i) {
                if (buf.ops[i].kind == k)
                    buf.scratch[n++] = buf.latUs[i];
            }
            res.classP50Us[k] = quantileInPlace(buf.scratch, n, 0.5);
        }
    }
    res.p50Us = quantileInPlace(buf.latUs, res.ops, 0.50);
    res.p90Us = quantileInPlace(buf.latUs, res.ops, 0.90);
    return res;
}

Buffers
makeBuffers(std::size_t per_thread)
{
    Buffers buf;
    buf.ops.resize(per_thread * stmThreads);
    buf.latUs.assign(per_thread * stmThreads, 0.0);
    buf.scratch.assign(per_thread * stmThreads, 0.0);
    return buf;
}

} // namespace

Report
runStm(const Options& opt)
{
    Report rep;
    std::printf("# stm: %d threads, %zu ops per thread per round, %llu "
                "pairs, zipf %.2f, 70%% lookups of %d pairs, 20%% "
                "transfers, 10%% transfers with an open ticket bump\n",
                stmThreads, opsPerThread,
                static_cast<unsigned long long>(tablePairs), tableSkew,
                lookupPairs);
    Buffers buf = makeBuffers(opsPerThread);
    std::vector<RoundResult> rounds;
    rounds.reserve(static_cast<std::size_t>(opt.seconds) * 20 + 1);
    const Clock::time_point tStart = Clock::now();
    do {
        rounds.push_back(
            runRound(buf, opsPerThread, opt.seed, opt.trace, false));
        for (const std::string& p : rounds.back().problems)
            rep.broken("round " + std::to_string(rounds.size()) + ": " + p);
    } while (secondsBetween(tStart, Clock::now()) < opt.seconds);

    std::vector<double> setupS, rate, p50, p90, clock, bytes;
    std::vector<double> classP50[opKinds];
    RoundResult sum;
    for (const RoundResult& r : rounds) {
        rep.attempted += r.ops;
        rep.failed += r.failed;
        setupS.push_back(r.setupS);
        rate.push_back(static_cast<double>(r.ops) / r.wallS);
        p50.push_back(r.p50Us);
        p90.push_back(r.p90Us);
        clock.push_back(r.clockPerOp);
        bytes.push_back(r.statsBytes);
        for (int k = 0; k < opKinds; ++k)
            classP50[k].push_back(r.classP50Us[k]);
        sum.starts += r.starts;
        sum.commits += r.commits;
        sum.retries += r.retries;
        sum.lockFailures += r.lockFailures;
        sum.snapshotExtensions += r.snapshotExtensions;
        sum.violations += r.violations;
        for (int s = 0; s < spanKinds; ++s) {
            sum.spanNs[s] += r.spanNs[s];
            sum.spanCalls[s] += r.spanCalls[s];
        }
    }
    if (rep.failed)
        std::printf("failed op: %llu ops saw a pair with unequal halves\n",
                    static_cast<unsigned long long>(rep.failed));
    std::printf("# stm: %zu rounds of %zu ops\n", rounds.size(),
                opsPerThread * stmThreads);
    printQuartiles("ops/s of each round", rate);
    printQuartiles("set-up seconds of each round", setupS);

    if (!opt.trace) {
        rep.add("setup_s", median(setupS), "s");
        rep.add("ops_per_s", median(rate), "1/s");
        rep.add("op_p50_us", median(p50), "us");
        rep.add("op_p90_us", median(p90), "us");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.add("sim_cycles_per_op", median(clock), "cycles");
        return rep;
    }
    const double nOps = static_cast<double>(rep.attempted);
    // A span holds one clock read besides the call; take it out.
    const double clockNs = clockReadNs();
    std::printf("# stm: ISA spans on 1 op in %zu, less %.1f ns of clock "
                "read each\n",
                spanSampleEvery, clockNs);
    const char* spanNames[spanKinds] = {
        "stm.begin_ns",    "stm.load_ns",   "stm.store_ns",
        "stm.validate_ns", "stm.commit_ns", "stm.handler_ns"};
    for (int s = 0; s < spanKinds; ++s) {
        const double mean =
            sum.spanCalls[s] ? sum.spanNs[s] /
                                   static_cast<double>(sum.spanCalls[s])
                             : 0;
        rep.add(spanNames[s], std::max(0.0, mean - clockNs), "ns");
    }
    for (int k = 0; k < opKinds; ++k) {
        rep.add(std::string("stm.") + opKindNames[k] + "_p50_us",
                median(classP50[k]), "us");
    }
    rep.add("stm.starts", static_cast<double>(sum.starts) / nOps, "count");
    rep.add("stm.commits", static_cast<double>(sum.commits) / nOps, "count");
    rep.add("stm.retries", static_cast<double>(sum.retries) / nOps, "count");
    rep.add("stm.lock_failures",
            static_cast<double>(sum.lockFailures) / nOps, "count");
    rep.add("stm.snapshot_extensions",
            static_cast<double>(sum.snapshotExtensions) / nOps, "count");
    rep.add("stm.violations", static_cast<double>(sum.violations) / nOps,
            "count");
    rep.add("stm.commits_per_start",
            static_cast<double>(sum.commits) /
                static_cast<double>(sum.starts),
            "ratio");
    rep.add("stm.stats_bytes", median(bytes), "bytes");
    rep.add("trace.ops_per_s", median(rate), "1/s");
    return rep;
}

bool
selftestStm()
{
    constexpr std::size_t tinyOps = 2000;
    Buffers buf = makeBuffers(tinyOps);
    bool ok = true;
    auto expect = [&](bool cond, const char* what) {
        std::printf("selftest stm: %s: %s\n", what, cond ? "ok" : "FAILED");
        ok = ok && cond;
    };
    for (bool traced : {false, true}) {
        const RoundResult r = runRound(buf, tinyOps, 1, traced, false);
        expect(r.failed == 0 && r.problems.empty(),
               traced ? "a traced round passes every check"
                      : "an untraced round passes every check");
    }
    const RoundResult bad = runRound(buf, tinyOps, 1, false, true);
    expect(bad.failed > 0,
           "one non-transactional store to a pair half fails ops");
    expect(!bad.problems.empty(),
           "the same store breaks the end-of-round checks");
    return ok;
}

} // namespace perfbench
