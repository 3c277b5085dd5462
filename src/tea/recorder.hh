/**
 * @file
 * Algorithm 2: recording TEA (and traces) online.
 *
 * The recorder is the paper's three-state machine:
 *
 *   Initial   — set up an empty TEA (just NTE); done in the constructor.
 *   Executing — ChangeState(TEA, Current, Next) on every block
 *               transition; ask the selection policy whether to start
 *               recording (TriggerTraceRecording / StartCreatingTrace).
 *   Creating  — AddTBBToTrace(Current, Next) until the policy declares
 *               the trace done (DoneTraceRecording / FinishTrace).
 *
 * One deliberate refinement over the paper's pseudo-code: ChangeState
 * also runs while Creating, so the automaton position stays valid if a
 * recording aborts into already-hot code.
 *
 * The recorder is the one place the automaton grows and compiles. A new
 * trace is appended in place (Tea::appendTrace(), Algorithm 1 for that
 * trace) and the compiled image is extended from its previous self
 * (CompiledTea::extend()), so an install costs the new trace, not the
 * automaton. An extended trace renumbers every later state, so that
 * install rebuilds both from the trace set. Either way the embedded
 * replayer restarts with fresh local caches, repositioned at the entry
 * of the block about to execute.
 */

#ifndef TEA_TEA_RECORDER_HH
#define TEA_TEA_RECORDER_HH

#include <memory>

#include "tea/builder.hh"
#include "tea/replayer.hh"
#include "trace/selector.hh"

namespace tea {

/**
 * Records traces online, maintaining the TEA as it grows.
 */
class TeaRecorder
{
  public:
    /** @param selector the trace-selection policy (owned) */
    explicit TeaRecorder(std::unique_ptr<TraceSelector> selector);

    ~TeaRecorder();

    /** Process one block transition (one invocation of Algorithm 2). */
    void feed(const BlockTransition &tr);

    /** The traces recorded so far. */
    const TraceSet &traces() const { return traceSet; }

    /** The automaton recorded so far. */
    const Tea &tea() const { return automaton; }

    /**
     * The compiled image of tea() the embedded replayer walks. It has
     * no source automaton attached (CompiledTea::withSource() makes it
     * publishable) and is replaced, never mutated, by each install.
     */
    const std::shared_ptr<const CompiledTea> &image() const { return compiled; }

    /** Whether the state machine is currently creating a trace. */
    bool creating() const { return recState == RecState::Creating; }

    /**
     * Counters accumulated over the whole run, including across
     * installs (coverage here is the Table 3 "Recording" coverage).
     */
    ReplayStats stats() const;

    /** Number of traces installed (new + extensions). */
    uint64_t installs() const { return installCount; }

  private:
    enum class RecState { Executing, Creating };

    void install(RecordingResult result);

    std::unique_ptr<TraceSelector> selector;
    TraceSet traceSet;
    Tea automaton;
    std::shared_ptr<const CompiledTea> compiled;
    std::unique_ptr<TeaReplayer> replayer;
    RecState recState = RecState::Executing;
    ReplayStats accumulated; ///< stats from replayers retired by installs
    Addr lastToStart = kNoAddr;
    uint64_t installCount = 0;
};

} // namespace tea

#endif // TEA_TEA_RECORDER_HH
