#include "bench.hh"
#include "core/machine.hh"

namespace perfbench {

const char* const SimCounts::names[SimCounts::kinds] = {
    "sim.ticks",         "sim.events",          "htm.commits",
    "htm.rollbacks",     "htm.violations_taken", "htm.lock_stalls",
    "htm.eager_conflicts", "htm.lazy_violations", "htm.cm.escalations",
    "htm.sig_filtered",  "htm.index_hits",      "mem.l1_misses",
    "mem.l2_misses",     "bus.transfers",       "bus.busy_cycles",
};

void
SimCounts::addMachine(tmsim::Machine& m)
{
    const tmsim::StatsRegistry& s = m.stats();
    const std::uint64_t got[kinds] = {
        s.value("sim.ticks"),
        m.eventQueue().executed(),
        s.sum("cpu*.htm.commits"),
        s.sum("cpu*.htm.rollbacks"),
        s.sum("cpu*.violations_taken"),
        s.value("htm.lock_stalls"),
        s.value("htm.eager_conflicts"),
        s.value("htm.lazy_violations"),
        s.value("htm.cm.escalations"),
        s.value("htm.sig_filtered"),
        s.value("htm.index_hits"),
        s.sum("cpu*.l1.misses"),
        s.sum("cpu*.l2.misses"),
        s.value("bus.transfers"),
        s.value("bus.busy_cycles"),
    };
    for (int i = 0; i < kinds; ++i)
        v[i] += got[i];
}

void
SimCounts::add(const SimCounts& o)
{
    for (int i = 0; i < kinds; ++i)
        v[i] += o.v[i];
}

void
addSimCountsPerOp(Report& r, const SimCounts& c, double ops)
{
    for (int i = 0; i < SimCounts::kinds; ++i) {
        const std::string name = SimCounts::names[i];
        const char* unit = (name == "sim.ticks" || name == "bus.busy_cycles")
                               ? "cycles"
                               : "count";
        r.add(name, ops > 0 ? static_cast<double>(c.v[i]) / ops : 0, unit);
    }
}

} // namespace perfbench
