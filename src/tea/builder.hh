/**
 * @file
 * Algorithm 1: converting a set of traces into a TEA.
 */

#ifndef TEA_TEA_BUILDER_HH
#define TEA_TEA_BUILDER_HH

#include "tea/automaton.hh"
#include "trace/trace.hh"

namespace tea {

/**
 * Build the whole-program TEA for a trace set (Algorithm 1).
 *
 * Step 1 creates the NTE state (implicit in Tea's constructor); the rest
 * runs Tea::appendTrace() once per trace, in TraceSet order: one state
 * per TBB (Property 1), the transitions to its intra-trace successors
 * labeled with the successor's start address, with transitions to
 * non-trace successors left implicit (they fall back to NTE), and the
 * NTE edge to the trace entry (Property 2). The online recorder runs
 * the same step per new trace, so the two automata are identical.
 *
 * The result is validated against the input before being returned.
 */
Tea buildTea(const TraceSet &traces);

} // namespace tea

#endif // TEA_TEA_BUILDER_HH
