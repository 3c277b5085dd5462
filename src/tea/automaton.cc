#include "tea/automaton.hh"

#include <algorithm>
#include <set>

#include "isa/program.hh"
#include "tea/serialize.hh"
#include "util/dot.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace tea {

Tea::Tea()
{
    clear();
}

void
Tea::clear()
{
    states.clear();
    states.push_back({0, 0, kNoAddr, kNoAddr, false, {}}); // NTE slot
    entryList.clear();
    entryMap.clear();
    byTraceTbb.clear();
}

size_t
Tea::numTransitions() const
{
    size_t n = entryList.size();
    for (size_t i = 1; i < states.size(); ++i)
        n += states[i].succs.size();
    return n;
}

const TeaState &
Tea::state(StateId id) const
{
    TEA_ASSERT(id != kNteState && id < states.size(), "bad state id %u",
               id);
    return states[id];
}

StateId
Tea::stateFor(TraceId trace, uint32_t tbb) const
{
    uint64_t key = (static_cast<uint64_t>(trace) << 32) | tbb;
    auto it = byTraceTbb.find(key);
    return it == byTraceTbb.end() ? kNteState : it->second;
}

StateId
Tea::entryAt(Addr addr) const
{
    auto it = entryMap.find(addr);
    return it == entryMap.end() ? kNteState : it->second;
}

StateId
Tea::nextState(StateId cur, Addr label) const
{
    if (cur != kNteState) {
        const TeaState &s = states[cur];
        for (StateId t : s.succs)
            if (states[t].start == label)
                return t;
    }
    // Leaving traces (or staying outside them): can we enter one?
    return entryAt(label);
}

StateId
Tea::addState(TraceId trace, uint32_t tbb, Addr start, Addr end,
              bool loop_header)
{
    StateId id = static_cast<StateId>(states.size());
    states.push_back({trace, tbb, start, end, loop_header, {}});
    uint64_t key = (static_cast<uint64_t>(trace) << 32) | tbb;
    TEA_ASSERT(!byTraceTbb.count(key), "duplicate state for trace %u "
               "tbb %u", trace, tbb);
    byTraceTbb[key] = id;
    return id;
}

void
Tea::addTransition(StateId from, StateId to)
{
    TEA_ASSERT(from != kNteState && from < states.size(),
               "bad transition source %u", from);
    TEA_ASSERT(to != kNteState && to < states.size(),
               "bad transition target %u", to);
    states[from].succs.push_back(to);
}

void
Tea::addEntry(StateId to)
{
    TEA_ASSERT(to != kNteState && to < states.size(), "bad entry %u", to);
    Addr addr = states[to].start;
    TEA_ASSERT(!entryMap.count(addr), "duplicate trace entry at %s",
               hex32(addr).c_str());
    entryMap[addr] = to;
    auto pos = std::lower_bound(
        entryList.begin(), entryList.end(), std::make_pair(addr, to));
    entryList.insert(pos, {addr, to});
}

void
Tea::appendTrace(const Trace &t)
{
    // Lines 3-5: one state per TBB.
    for (uint32_t b = 0; b < t.blocks.size(); ++b) {
        const TraceBasicBlock &tbb = t.blocks[b];
        addState(t.id, b, tbb.start, tbb.end, tbb.loopHeader);
    }
    // Lines 6-14: transitions out of TBBs. Successors that are trace
    // blocks get explicit transitions labeled with the successor's
    // start address; all other successors fall back to NTE implicitly.
    for (const Trace::Edge &e : t.edges) {
        StateId from = stateFor(t.id, e.from);
        StateId to = stateFor(t.id, e.to);
        TEA_ASSERT(from != kNteState && to != kNteState,
                   "edge references unknown TBB");
        addTransition(from, to);
    }
    // Lines 15-17: NTE -> the trace entry, labeled with its address.
    addEntry(stateFor(t.id, 0));
}

void
Tea::validate(const TraceSet &traces) const
{
    // Property 1: every TBB of every trace has exactly one state, so
    // the per-trace checks below cover every state.
    size_t expected = traces.totalBlocks();
    TEA_ASSERT(numTbbStates() == expected,
               "state count %zu != TBB count %zu", numTbbStates(),
               expected);
    for (const Trace &t : traces.all())
        validateTrace(t);
    // Entry list sorted / unique and consistent with the map.
    for (size_t i = 1; i < entryList.size(); ++i)
        TEA_ASSERT(entryList[i - 1].first < entryList[i].first,
                   "entry list unsorted");
    TEA_ASSERT(entryList.size() == entryMap.size(), "entry index skew");
}

void
Tea::validateTrace(const Trace &t) const
{
    for (uint32_t b = 0; b < t.blocks.size(); ++b) {
        StateId id = stateFor(t.id, b);
        TEA_ASSERT(id != kNteState, "missing state for trace %u tbb %u",
                   t.id, b);
        const TeaState &s = states[id];
        TEA_ASSERT(s.start == t.blocks[b].start &&
                   s.end == t.blocks[b].end,
                   "state/TBB address mismatch");
        // Determinism: per state, out-labels are unique.
        std::set<Addr> labels;
        for (StateId to : s.succs)
            TEA_ASSERT(labels.insert(states[to].start).second,
                       "state %u is nondeterministic on %s", id,
                       hex32(states[to].start).c_str());
    }
    // Property 2: every intra-trace edge is represented.
    for (const Trace::Edge &e : t.edges) {
        const auto &succs = states[stateFor(t.id, e.from)].succs;
        TEA_ASSERT(std::find(succs.begin(), succs.end(),
                             stateFor(t.id, e.to)) != succs.end(),
                   "edge (%u: %u -> %u) missing from TEA", t.id, e.from,
                   e.to);
    }
    // Each trace must be reachable from NTE at its entry.
    TEA_ASSERT(entryAt(t.entry()) == stateFor(t.id, 0),
               "trace %u entry not wired to NTE", t.id);
}

size_t
Tea::serializedBytes() const
{
    // Delegate to the actual serializer so the reported size can never
    // drift from the bytes a tool would really store (tea/serialize.cc).
    return saveTea(*this).size();
}

std::string
Tea::toDot(const std::string &name, const Program *prog) const
{
    DotGraph g(name);
    auto state_label = [&](StateId id) {
        const TeaState &s = states[id];
        std::string block = hex32(s.start);
        if (prog) {
            std::string lbl = prog->labelAt(s.start);
            if (!lbl.empty())
                block = lbl;
        }
        return strprintf("$$T%u.%s", s.trace + 1, block.c_str());
    };

    g.addNode("NTE", "NTE", "doublecircle");
    for (size_t i = 1; i < states.size(); ++i)
        g.addNode(strprintf("s%zu", i), state_label(static_cast<StateId>(i)));

    for (const auto &[addr, id] : entryList)
        g.addEdge("NTE", strprintf("s%u", id), hex32(addr));
    for (size_t i = 1; i < states.size(); ++i) {
        for (StateId t : states[i].succs) {
            g.addEdge(strprintf("s%zu", i), strprintf("s%u", t),
                      hex32(states[t].start));
        }
        // One representative fall-back edge to NTE (implicit transitions).
        g.addEdge(strprintf("s%zu", i), "NTE", "otherwise");
    }
    return g.render();
}

} // namespace tea
