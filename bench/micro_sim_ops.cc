/**
 * @file
 * Host-side microbenchmarks (google-benchmark) of the simulator's hot
 * paths: how many simulated operations per host-second the machinery
 * sustains — loads/stores through the hierarchy, transaction
 * begin/commit, nesting, and conflict-heavy retry loops.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "sim/logging.hh"

using namespace tmsim;

namespace {

MachineConfig
config(int cpus, HtmConfig htm = HtmConfig::paperLazy())
{
    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.htm = htm;
    cfg.memBytes = 8ull * 1024 * 1024; // keep construction cheap
    return cfg;
}

void
BM_PlainLoadStore(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    for (auto _ : state) {
        Machine m(config(1));
        Addr a = m.memory().allocate(4096);
        m.spawn(0, [&](Cpu& c) -> SimTask {
            for (int i = 0; i < 1000; ++i) {
                Word v = co_await c.load(a + (i % 64) * 8);
                co_await c.store(a + (i % 64) * 8, v + 1);
            }
        });
        m.run();
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}

void
BM_TransactionCommit(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    for (auto _ : state) {
        Machine m(config(1));
        TxThread t0(m.cpu(0));
        Addr a = m.memory().allocate(64);
        m.spawn(0, [&](Cpu&) -> SimTask {
            for (int i = 0; i < 200; ++i) {
                co_await t0.atomic([&](TxThread& t) -> SimTask {
                    Word v = co_await t.ld(a);
                    co_await t.st(a, v + 1);
                });
            }
        });
        m.run();
    }
    state.SetItemsProcessed(state.iterations() * 200);
}

void
BM_NestedTransaction(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    for (auto _ : state) {
        Machine m(config(1));
        TxThread t0(m.cpu(0));
        Addr a = m.memory().allocate(64);
        m.spawn(0, [&](Cpu&) -> SimTask {
            for (int i = 0; i < 100; ++i) {
                co_await t0.atomic([&](TxThread& t) -> SimTask {
                    co_await t.atomic([&](TxThread& ti) -> SimTask {
                        Word v = co_await ti.ld(a);
                        co_await ti.st(a, v + 1);
                    });
                });
            }
        });
        m.run();
    }
    state.SetItemsProcessed(state.iterations() * 100);
}

void
BM_ContendedCounter8(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    for (auto _ : state) {
        Machine m(config(8));
        std::vector<std::unique_ptr<TxThread>> threads;
        for (int i = 0; i < 8; ++i)
            threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
        Addr a = m.memory().allocate(64);
        for (int i = 0; i < 8; ++i) {
            m.spawn(i, [&, i](Cpu&) -> SimTask {
                TxThread& t = *threads[static_cast<size_t>(i)];
                for (int k = 0; k < 20; ++k) {
                    co_await t.atomic([&](TxThread& tx) -> SimTask {
                        Word v = co_await tx.ld(a);
                        co_await tx.work(10);
                        co_await tx.st(a, v + 1);
                    });
                }
            });
        }
        m.run();
    }
    state.SetItemsProcessed(state.iterations() * 160);
}

void
BM_ContendedCounter16(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    for (auto _ : state) {
        Machine m(config(16));
        std::vector<std::unique_ptr<TxThread>> threads;
        for (int i = 0; i < 16; ++i)
            threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
        Addr a = m.memory().allocate(64);
        for (int i = 0; i < 16; ++i) {
            m.spawn(i, [&, i](Cpu&) -> SimTask {
                TxThread& t = *threads[static_cast<size_t>(i)];
                for (int k = 0; k < 10; ++k) {
                    co_await t.atomic([&](TxThread& tx) -> SimTask {
                        Word v = co_await tx.ld(a);
                        co_await tx.work(10);
                        co_await tx.st(a, v + 1);
                    });
                }
            });
        }
        m.run();
    }
    state.SetItemsProcessed(state.iterations() * 160);
}

void
BM_EagerContendedCounter8(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    for (auto _ : state) {
        Machine m(config(8, HtmConfig::eagerUndoLog()));
        std::vector<std::unique_ptr<TxThread>> threads;
        for (int i = 0; i < 8; ++i)
            threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
        Addr a = m.memory().allocate(64);
        for (int i = 0; i < 8; ++i) {
            m.spawn(i, [&, i](Cpu&) -> SimTask {
                TxThread& t = *threads[static_cast<size_t>(i)];
                for (int k = 0; k < 20; ++k) {
                    co_await t.atomic([&](TxThread& tx) -> SimTask {
                        Word v = co_await tx.ld(a);
                        co_await tx.work(10);
                        co_await tx.st(a, v + 1);
                    });
                }
            });
        }
        m.run();
    }
    state.SetItemsProcessed(state.iterations() * 160);
}

void
BM_MachineConstruction(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    for (auto _ : state) {
        Machine m(config(static_cast<int>(state.range(0))));
        benchmark::DoNotOptimize(&m);
    }
}

} // namespace

BENCHMARK(BM_PlainLoadStore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TransactionCommit)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NestedTransaction)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ContendedCounter8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ContendedCounter16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EagerContendedCounter8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MachineConstruction)->Arg(1)->Arg(8)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
