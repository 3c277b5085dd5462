/**
 * @file
 * The Trace Execution Automaton (TEA) itself.
 *
 * A TEA is a DFA with one state per TBB plus the distinguished NTE state
 * ("No Trace being Executed"). Transition labels are guest program
 * counters: feeding the executing block-start stream into the automaton
 * keeps its current state synchronized with the trace copy (TBB) the
 * program is logically inside — without any replicated trace code.
 *
 * Representation notes (these drive the Table 1 memory numbers):
 * - A transition's label is always the *start address of its target TBB*
 *   (the PC that triggers it, §3), so per-state transition lists store
 *   only target state ids; labels are read from the target state.
 * - Transitions to NTE are implicit: any label not matched by the current
 *   state's list and not entering a trace falls back to NTE. This mirrors
 *   Algorithm 1, which adds TBB->NTE transitions precisely for the labels
 *   it does not otherwise account for.
 * - NTE's out-transitions are the trace entry points; they are resolved
 *   through a pluggable lookup structure at replay time (§4.2).
 */

#ifndef TEA_TEA_AUTOMATON_HH
#define TEA_TEA_AUTOMATON_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace.hh"

namespace tea {

class Program;

/** A TEA state id; kNteState (0) is the NTE state. */
using StateId = uint32_t;

/** One automaton state: a TBB of some trace. */
struct TeaState
{
    TraceId trace;  ///< owning trace
    uint32_t tbb;   ///< TBB index within the trace
    Addr start;     ///< block start address (== incoming label)
    Addr end;       ///< block end address
    bool loopHeader;
    /**
     * Out-transitions: target state ids. The label of the transition to
     * target t is states[t].start.
     */
    std::vector<StateId> succs;
};

/**
 * The whole-program automaton of Figure 3(b).
 */
class Tea
{
  public:
    /** The NTE state's id. */
    static constexpr StateId kNteState = 0;

    Tea();

    /** Total states including NTE. */
    size_t numStates() const { return states.size(); }

    /** Number of TBB states (excluding NTE). */
    size_t numTbbStates() const { return states.size() - 1; }

    /** Total explicit transitions (TBB->TBB plus NTE->entry). */
    size_t numTransitions() const;

    /** State record; id must be a TBB state (not NTE). */
    const TeaState &state(StateId id) const;

    /** State representing (trace, tbb), or kNteState when absent. */
    StateId stateFor(TraceId trace, uint32_t tbb) const;

    /** Trace entry points: (entry address, entry state), sorted by addr. */
    const std::vector<std::pair<Addr, StateId>> &entries() const
    {
        return entryList;
    }

    /** Entry state at addr, or kNteState when no trace starts there. */
    StateId entryAt(Addr addr) const;

    /**
     * The canonical transition function (reference semantics; the
     * TeaReplayer implements the same function with the §4.2 lookup
     * accelerators).
     *
     * @param cur   current state
     * @param label the next executing block's start address
     * @return the next state (kNteState when the label leaves all traces)
     */
    StateId nextState(StateId cur, Addr label) const;

    /** @name Construction (used by TeaBuilder / deserialization) */
    /// @{
    /**
     * Algorithm 1, lines 3-17, for one trace: append a state per TBB,
     * the trace's intra-trace transitions, and its NTE entry. Existing
     * states keep their ids, so appending traces in TraceSet order
     * yields exactly buildTea()'s automaton. Does not validate; see
     * validateTrace().
     */
    void appendTrace(const Trace &trace);

    /** Append a TBB state. @return its id. */
    StateId addState(TraceId trace, uint32_t tbb, Addr start, Addr end,
                     bool loop_header);

    /** Add a transition from -> to (label implied by `to`). */
    void addTransition(StateId from, StateId to);

    /** Register a trace entry (an NTE out-transition). */
    void addEntry(StateId to);

    /** Drop everything back to just the NTE state. */
    void clear();
    /// @}

    /**
     * Verify DFA invariants (Properties 1 and 2 of the paper given the
     * source trace set): every TBB has a state; every intra-trace edge
     * has a transition; determinism (one target per (state, label));
     * entry list is sorted and unique.
     * @throws PanicError on violation.
     */
    void validate(const TraceSet &traces) const;

    /**
     * The per-trace part of validate(): the trace's TBBs have states
     * (Property 1), its edges have transitions (Property 2), NTE enters
     * it at its entry, and its states are deterministic.
     * @throws PanicError on violation.
     */
    void validateTrace(const Trace &trace) const;

    /**
     * Serialized size in bytes of the compact binary form — the "TEA"
     * column of Table 1 (see tea/serialize.hh for the exact layout).
     */
    size_t serializedBytes() const;

    /** Render the automaton in GraphViz DOT (Figure 3 reproduction). */
    std::string toDot(const std::string &name,
                      const Program *prog = nullptr) const;

  private:
    /**
     * states[0] is a placeholder for NTE (its succs stay empty; NTE
     * transitions live in entryList).
     */
    std::vector<TeaState> states;
    std::vector<std::pair<Addr, StateId>> entryList;
    std::unordered_map<Addr, StateId> entryMap;
    std::unordered_map<uint64_t, StateId> byTraceTbb;
};

} // namespace tea

#endif // TEA_TEA_AUTOMATON_HH
