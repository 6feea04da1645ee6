#include "check/stm_interp.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tmsim {

namespace {

constexpr Addr stmLineBytes = 32; // layout geometry, as the simulator

/** Fixed-work spin standing in for the simulator's exec(n). */
void
spinWork(std::uint64_t n)
{
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        sink = sink + 1;
}

} // namespace

StmFuzzInterp::StmFuzzInterp(const FuzzProgram& program, StmConfig config)
    : prog(program), cfg(std::move(config))
{
    layout.slots = prog.slotsPerRegion;
}

void
StmFuzzInterp::attach(StmRuntime& rt)
{
    // Same region geometry as the simulator layout: line-aligned
    // regions, contiguous word slots. Base addresses differ between
    // engines, so cross-engine comparison is positional.
    const Addr regionBytes =
        static_cast<Addr>(layout.slots) * wordBytes;
    layout.regionStride =
        (regionBytes + stmLineBytes - 1) & ~(stmLineBytes - 1);
    layout.base = rt.allocate(
        static_cast<Addr>(numRegions) * layout.regionStride,
        stmLineBytes);
    for (int r = 0; r < numRegions; ++r) {
        for (int s = 0; s < layout.slots; ++s) {
            const Region reg = static_cast<Region>(r);
            rt.write(layout.addrOf(reg, s),
                     FuzzLayout::initValue(reg, s));
        }
    }
}

void
StmFuzzInterp::execBody(StmThread& t, int tid, int tx_idx, int depth,
                        std::vector<KeyedUnit>& out)
{
    constexpr Addr wordMask = ~(wordBytes - 1);
    const FuzzTx& tx = prog.txs[static_cast<size_t>(tx_idx)];
    for (const FuzzOp& op : tx.ops) {
        const Addr a = layout.addrOf(op.region, op.slot);
        switch (op.kind) {
        case FuzzOpKind::TxRead: {
            const Word v = t.txLoad(a);
            flog.logAccess(tid, ObservedAccess::Kind::Read, a, v);
            break;
        }
        case FuzzOpKind::TxAdd: {
            const Word v = t.txLoad(a);
            t.txStore(a, v + op.value);
            flog.logAccess(tid, ObservedAccess::Kind::Read, a, v);
            flog.logAccess(tid, ObservedAccess::Kind::Write, a,
                           v + op.value);
            break;
        }
        case FuzzOpKind::Release:
            t.release(a);
            flog.markReleased(tid, a & wordMask, wordMask);
            break;
        case FuzzOpKind::ImmRead:
            t.imld(a);
            break;
        case FuzzOpKind::ImmStore:
            t.imst(a, op.value);
            break;
        case FuzzOpKind::ImmStoreIdem:
            t.imstid(a, op.value);
            break;
        case FuzzOpKind::Exec:
            spinWork(op.value);
            break;
        case FuzzOpKind::HandlerCommit: {
            std::vector<Word> args;
            args.push_back(a);
            args.push_back(op.value + 1);
            t.onCommit(
                [](StmThread& th, const std::vector<Word>& hargs) {
                    th.imstid(hargs[0], hargs[1]);
                },
                std::move(args));
            break;
        }
        case FuzzOpKind::HandlerViolation: {
            std::vector<Word> args;
            args.push_back(a);
            t.onViolation(
                [](StmThread& th, const StmViolationInfo&,
                   const std::vector<Word>& hargs) {
                    th.imstid(hargs[0], 1);
                    return StmVioAction::Proceed;
                },
                std::move(args));
            break;
        }
        case FuzzOpKind::HandlerAbort: {
            std::vector<Word> args;
            args.push_back(a);
            args.push_back(op.value + 2);
            t.onAbort(
                [](StmThread& th, const std::vector<Word>& hargs) {
                    th.imstid(hargs[0], hargs[1]);
                },
                std::move(args));
            break;
        }
        case FuzzOpKind::Abort:
            t.xabort(op.value);
            break;
        case FuzzOpKind::Nest:
            runTxNode(t, tid, op.child, depth + 1, out);
            break;
        }
    }
}

void
StmFuzzInterp::runTxNode(StmThread& t, int tid, int tx_idx, int depth,
                         std::vector<KeyedUnit>& out)
{
    const FuzzTx& tx = prog.txs[static_cast<size_t>(tx_idx)];
    const StmTxBody body = [&](StmThread& th) {
        flog.enterAttempt(tid, depth);
        execBody(th, tid, tx_idx, depth, out);
    };
    const StmTxOutcome o =
        tx.open ? t.atomicOpen(body) : t.atomic(body);

    if (!o.committed()) {
        // Voluntary abort: the attempt's frames are dead.
        flog.discardAtOrBelow(tid, depth);
        return;
    }

    if (!flog.topIs(tid, depth)) {
        flog.setError("frame stack out of sync at commit");
        return;
    }
    FrameLog::Frame f = flog.takeTop(tid);

    // The STM nests fully (no flattening): memory commits happen at
    // the outermost level and at every open-nested level. Unlike the
    // simulator there is no serialize-then-cancel window — violations
    // surface synchronously in the faulting thread — so a returned
    // commit is always durable and can be attached immediately.
    const bool memoryCommit = depth == 1 || tx.open;
    if (memoryCommit) {
        ObservedUnit u;
        u.kind = tx.open && depth > 1 ? ObservedUnit::Kind::OpenCommit
                                      : ObservedUnit::Kind::TxCommit;
        u.cpu = static_cast<CpuId>(tid);
        u.filled = true;
        u.accesses = std::move(f.accesses);
        out.push_back(KeyedUnit{t.lastCommit(), std::move(u)});
    } else {
        flog.foldIntoTop(tid, std::move(f.accesses));
    }
}

void
StmFuzzInterp::threadBody(StmThread& t, int tid,
                          std::vector<KeyedUnit>& out)
{
    if (tid >= prog.numThreads())
        return;
    const auto& ops = prog.threads[static_cast<size_t>(tid)];
    for (size_t i = 0; i < ops.size(); ++i) {
        const ThreadOp& op = ops[i];
        switch (op.kind) {
        case ThreadOpKind::RunTx:
            runTxNode(t, tid, op.tx, 1, out);
            break;
        case ThreadOpKind::NakedLoad: {
            const Addr a = layout.addrOf(op.region, op.slot);
            const auto [v, key] = t.nakedLoad(a);
            ObservedUnit u;
            u.kind = ObservedUnit::Kind::NakedLoad;
            u.cpu = static_cast<CpuId>(tid);
            u.filled = true;
            u.addr = a;
            u.value = v;
            out.push_back(KeyedUnit{key, std::move(u)});
            break;
        }
        case ThreadOpKind::NakedStore: {
            const Addr a = layout.addrOf(op.region, op.slot);
            const StmCommitInfo key = t.nakedStore(a, op.value);
            ObservedUnit u;
            u.kind = ObservedUnit::Kind::NakedStore;
            u.cpu = static_cast<CpuId>(tid);
            u.filled = true;
            u.addr = a;
            u.value = op.value;
            out.push_back(KeyedUnit{key, std::move(u)});
            break;
        }
        case ThreadOpKind::Work:
            spinWork(op.value);
            break;
        }
        // Self-test bug injection: a deliberately unrecorded store the
        // oracle must catch (validates the whole checking pipeline).
        if (tid == 0 && prog.injectHiddenStoreAfter == static_cast<int>(i))
            t.nakedStore(layout.addrOf(Region::Shared, 0),
                         0xDEADBEEFull);
    }
}

ObservedRun
StmFuzzInterp::run(StatsRegistry* stats_out)
{
    StmRuntime rt(cfg);
    attach(rt);

    const int n = prog.numThreads();
    flog.resize(static_cast<size_t>(n));
    std::vector<std::vector<KeyedUnit>> perThread(
        static_cast<size_t>(n));
    std::vector<std::string> errs(static_cast<size_t>(n));
    std::atomic<bool> hung{false};

    std::vector<std::thread> hosts;
    hosts.reserve(static_cast<size_t>(n));
    for (int tid = 0; tid < n; ++tid) {
        hosts.emplace_back([&, tid] {
            StmThread t(rt, tid);
            try {
                threadBody(t, tid, perThread[static_cast<size_t>(tid)]);
            } catch (const StmHangError& h) {
                hung.store(true, std::memory_order_relaxed);
            } catch (const StmRollback&) {
                errs[static_cast<size_t>(tid)] =
                    "rollback escaped the retry driver";
            } catch (const StmAbortSignal&) {
                errs[static_cast<size_t>(tid)] =
                    "abort signal escaped the retry driver";
            } catch (const std::exception& e) {
                errs[static_cast<size_t>(tid)] =
                    std::string("exception escaped stm thread: ") +
                    e.what();
            } catch (...) {
                errs[static_cast<size_t>(tid)] =
                    "unknown exception escaped stm thread";
            }
        });
    }
    for (std::thread& h : hosts)
        h.join();

    ObservedRun rec;
    rec.layout = layout;
    for (const std::string& e : errs) {
        if (!e.empty() && rec.error.empty())
            rec.error = e;
    }
    if (rec.error.empty() && !flog.error().empty())
        rec.error = flog.error();
    rec.hang = hung.load(std::memory_order_relaxed) &&
               rec.error.empty();

    // Global serialization order: writers at their commit timestamp
    // (phase 0) precede the read-only units that observed state at
    // that timestamp (phase 1); seq breaks the remaining ties.
    std::vector<KeyedUnit> all;
    for (auto& pt : perThread) {
        for (auto& ku : pt)
            all.push_back(std::move(ku));
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const KeyedUnit& x, const KeyedUnit& y) {
                         if (x.key.key != y.key.key)
                             return x.key.key < y.key.key;
                         if (x.key.phase != y.key.phase)
                             return x.key.phase < y.key.phase;
                         return x.key.seq < y.key.seq;
                     });
    rec.units.reserve(all.size());
    for (auto& ku : all)
        rec.units.push_back(std::move(ku.unit));

    for (int r = 0; r < numRegions; ++r) {
        const Region reg = static_cast<Region>(r);
        if (!regionChecked(reg))
            continue;
        for (int s = 0; s < layout.slots; ++s) {
            const Addr a = layout.addrOf(reg, s);
            const Word v = rt.read(a);
            rec.finalChecked.emplace_back(a, v);
            if (regionInvariant(reg))
                rec.finalInvariant.emplace_back(a, v);
        }
    }

    if (stats_out)
        rt.mergeStats(*stats_out);
    return rec;
}

} // namespace tmsim
