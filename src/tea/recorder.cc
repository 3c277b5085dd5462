#include "tea/recorder.hh"

#include "util/logging.hh"

namespace tea {

TeaRecorder::TeaRecorder(std::unique_ptr<TraceSelector> sel)
    : selector(std::move(sel))
{
    TEA_ASSERT(selector != nullptr, "recorder needs a selector");
    // "Initial": InitializeTEA — an automaton with only the NTE state.
    compiled = std::make_shared<const CompiledTea>(automaton);
    replayer = std::make_unique<TeaReplayer>(automaton, LookupConfig{},
                                             compiled);
}

TeaRecorder::~TeaRecorder() = default;

ReplayStats
TeaRecorder::stats() const
{
    ReplayStats total = accumulated;
    total += replayer->stats();
    return total;
}

void
TeaRecorder::install(RecordingResult result)
{
    if (result.kind == RecordingResult::Kind::Aborted)
        return;

    if (result.kind == RecordingResult::Kind::NewTrace) {
        // Existing state ids stay put: grow the automaton and its image
        // by this trace alone.
        const Trace &t = traceSet.at(traceSet.add(std::move(result.trace)));
        automaton.appendTrace(t);
        automaton.validateTrace(t);
        compiled = CompiledTea::extend(automaton, *compiled);
    } else {
        // An extension renumbers every later state: rebuild both.
        traceSet.replace(result.extends, std::move(result.trace));
        automaton = buildTea(traceSet);
        compiled = std::make_shared<const CompiledTea>(automaton);
    }
    ++installCount;

    // Re-seat the replayer with fresh local caches, and reposition from
    // the address about to execute: entering a trace is only possible
    // at its entry (NTE transitions), so entryAt() is exactly the
    // automaton's answer.
    accumulated += replayer->stats();
    replayer = std::make_unique<TeaReplayer>(automaton, LookupConfig{},
                                             compiled);
    if (lastToStart != kNoAddr)
        replayer->setCurrentState(automaton.entryAt(lastToStart));
}

void
TeaRecorder::feed(const BlockTransition &tr)
{
    // Build the policy's view of where the automaton is *before* the
    // transition: the Current TBB of Algorithm 2.
    StateId pre = replayer->currentState();
    SelectorContext ctx{traceSet, pre != Tea::kNteState, 0, 0, false};
    if (ctx.inTrace) {
        const TeaState &s = automaton.state(pre);
        ctx.curTrace = s.trace;
        ctx.curTbb = s.tbb;
        if (tr.toStart == kNoAddr) {
            ctx.exitsTrace = true;
        } else {
            bool intra = false;
            for (StateId t : s.succs)
                if (automaton.state(t).start == tr.toStart)
                    intra = true;
            ctx.exitsTrace = !intra;
        }
    }

    // ChangeState(TEA, Current, Next).
    replayer->feed(tr);
    lastToStart = tr.toStart;

    switch (recState) {
      case RecState::Executing: {
        ExecutingAction action = selector->onExecuting(tr, ctx);
        if (action == ExecutingAction::StartRecording)
            recState = RecState::Creating;
        else if (action == ExecutingAction::FinishImmediately)
            install(selector->finish(traceSet));
        break;
      }
      case RecState::Creating: {
        CreatingAction action = selector->onCreating(tr, ctx);
        if (action != CreatingAction::Continue) {
            install(selector->finish(traceSet));
            recState = RecState::Executing;
        }
        break;
      }
    }
}

} // namespace tea
