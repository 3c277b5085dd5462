/**
 * @file
 * Edge cases of the online recorder (Algorithm 2) and the §4.1
 * cross-policy subtleties: why the pintool instruments *edges* rather
 * than block heads when replaying StarDBT-recorded traces. Also the
 * recorder's oracle: Algorithm 2 with a full rebuild on every install.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "tea/builder.hh"
#include "tea/recorder.hh"
#include "tea/replayer.hh"
#include "tea/serialize.hh"
#include "trace/factory.hh"
#include "vm/block.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

/** Run a full recording pass and return the recorder. */
std::unique_ptr<TeaRecorder>
recordRun(const Program &prog, const std::string &selector,
          bool pin_policy, SelectorConfig cfg = {})
{
    auto recorder =
        std::make_unique<TeaRecorder>(makeSelector(selector, cfg));
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { recorder->feed(tr); },
        /*rep_per_iteration=*/pin_policy);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                /*split_at_special=*/pin_policy);
    return recorder;
}

/**
 * The recorder's oracle: Algorithm 2 the slow way. Every install
 * rebuilds the whole TEA with buildTea(), starts a fresh replayer, and
 * repositions it at the entry of the block about to execute.
 * TeaRecorder grows its automaton and image in place instead, and must
 * match this in every observable.
 */
struct RebuildingRecorder
{
    explicit RebuildingRecorder(std::unique_ptr<TraceSelector> sel)
        : selector(std::move(sel)),
          replayer(std::make_unique<TeaReplayer>(tea, LookupConfig{}))
    {
    }

    void
    feed(const BlockTransition &tr)
    {
        StateId pre = replayer->currentState();
        SelectorContext ctx{traces, pre != Tea::kNteState, 0, 0, false};
        if (ctx.inTrace) {
            const TeaState &s = tea.state(pre);
            ctx.curTrace = s.trace;
            ctx.curTbb = s.tbb;
            ctx.exitsTrace = true; // no TBB starts at kNoAddr
            for (StateId t : s.succs)
                if (tea.state(t).start == tr.toStart)
                    ctx.exitsTrace = false;
        }
        replayer->feed(tr);
        lastToStart = tr.toStart;
        if (!creating) {
            ExecutingAction a = selector->onExecuting(tr, ctx);
            creating = a == ExecutingAction::StartRecording;
            if (a == ExecutingAction::FinishImmediately)
                install(selector->finish(traces));
        } else if (selector->onCreating(tr, ctx) != CreatingAction::Continue) {
            install(selector->finish(traces));
            creating = false;
        }
    }

    void
    install(RecordingResult r)
    {
        if (r.kind == RecordingResult::Kind::Aborted)
            return;
        if (r.kind == RecordingResult::Kind::NewTrace)
            traces.add(std::move(r.trace));
        else
            traces.replace(r.extends, std::move(r.trace));
        ++installs;
        retired += replayer->stats();
        tea = buildTea(traces);
        replayer = std::make_unique<TeaReplayer>(tea, LookupConfig{});
        if (lastToStart != kNoAddr)
            replayer->setCurrentState(tea.entryAt(lastToStart));
    }

    ReplayStats
    stats() const
    {
        ReplayStats total = retired;
        total += replayer->stats();
        return total;
    }

    std::unique_ptr<TraceSelector> selector;
    TraceSet traces;
    Tea tea;
    std::unique_ptr<TeaReplayer> replayer;
    ReplayStats retired;
    Addr lastToStart = kNoAddr;
    uint64_t installs = 0;
    bool creating = false;
};

TEST(RecorderOracle, InPlaceGrowthMatchesFullRebuilds)
{
    for (const std::string &name : Workloads::names()) {
        Program prog = Workloads::build(name, InputSize::Test).program;
        for (const std::string &sel : selectorNames()) {
            SCOPED_TRACE(name + " / " + sel);
            TeaRecorder grown(makeSelector(sel));
            RebuildingRecorder oracle(makeSelector(sel));
            Machine m(prog);
            BlockTracker tracker(
                prog,
                [&](const BlockTransition &tr) {
                    grown.feed(tr);
                    oracle.feed(tr);
                },
                /*rep_per_iteration=*/true, /*collect_blocks=*/false);
            m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                        /*split_at_special=*/true);
            EXPECT_EQ(saveTea(grown.tea()), saveTea(oracle.tea));
            EXPECT_EQ(grown.stats(), oracle.stats());
            EXPECT_EQ(grown.installs(), oracle.installs);
            EXPECT_EQ(grown.traces().size(), oracle.traces.size());
            EXPECT_GT(grown.installs(), 0u);
        }
    }
}

/** A loop whose body contains a REP instruction mid-block (§4.1). */
const char *kRepInLoop = R"(
    main:
        mov ebp, 400
    loop:
        mov esi, 0x100000
        mov edi, 0x140000
        mov ecx, 8
        repmovs
        add eax, 1
        dec ebp
        jne loop
        out eax
        halt
)";

TEST(CrossPolicy, StarDbtAndPinRecordDifferentBlockShapes)
{
    Program p = assemble(kRepInLoop);
    auto stardbt = recordRun(p, "mret", /*pin_policy=*/false);
    auto pin = recordRun(p, "mret", /*pin_policy=*/true);

    ASSERT_GT(stardbt->traces().size(), 0u);
    ASSERT_GT(pin->traces().size(), 0u);
    // StarDBT sees the whole loop body as one block; Pin splits it at
    // the REP, so Pin's trace set carries more TBBs over the same code.
    EXPECT_GT(pin->traces().totalBlocks(),
              stardbt->traces().totalBlocks());
}

TEST(CrossPolicy, EdgeInstrumentationReplaysForeignTracesLosslessly)
{
    // The paper's fix: replaying StarDBT traces under Pin works because
    // the tool instruments taken/fall-through edges, seeing exactly the
    // transitions StarDBT saw.
    Program p = assemble(kRepInLoop);
    auto stardbt = recordRun(p, "mret", /*pin_policy=*/false);
    Tea tea = buildTea(stardbt->traces());

    LookupConfig cfg;
    cfg.checkConsistency = true;
    TeaReplayer replayer(tea, cfg);
    Machine m(p);
    BlockTracker tracker(
        p, [&](const BlockTransition &tr) { replayer.feed(tr); },
        /*rep_per_iteration=*/true);
    // split_at_special = false: edge instrumentation only.
    EXPECT_EQ(m.runHooked(
                  [&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false),
              RunExit::Halted);
    EXPECT_GT(replayer.stats().coverage(), 0.9);
}

TEST(CrossPolicy, HeadInstrumentationWouldDesyncForeignTraces)
{
    // The counterfactual the paper warns about: if the replayer saw
    // Pin's extra block boundaries (REP splits), the StarDBT-recorded
    // TBBs would not match and execution would keep falling out of the
    // traces. TEA degrades *safely* — coverage collapses, but the map
    // stays sound (no misattribution), so with consistency checking
    // off nothing crashes.
    Program p = assemble(kRepInLoop);
    auto stardbt = recordRun(p, "mret", /*pin_policy=*/false);
    Tea tea = buildTea(stardbt->traces());

    TeaReplayer replayer(tea, LookupConfig{});
    Machine m(p);
    BlockTracker tracker(
        p, [&](const BlockTransition &tr) { replayer.feed(tr); },
        /*rep_per_iteration=*/true);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                /*split_at_special=*/true); // the mismatched policy
    EXPECT_LT(replayer.stats().coverage(), 0.9)
        << "mid-block boundaries must knock execution out of the traces";
}

TEST(RecorderEdge, RepositionsIntoFreshlyInstalledTraces)
{
    // A cyclic trace finishes recording exactly when control re-enters
    // its head: the recorder must already be in the new trace's entry
    // state on the next transition (coverage would dip otherwise).
    Program p = assemble(R"(
        main:
            mov ebp, 2000
        head:
            add eax, 1
            dec ebp
            jne head
            out eax
            halt
    )");
    auto recorder = recordRun(p, "mret", false);
    ASSERT_EQ(recorder->traces().size(), 1u);
    // 2000 iterations, threshold 50: virtually everything after the
    // warm-up runs inside the trace.
    EXPECT_GT(recorder->stats().coverage(), 0.9);
}

TEST(RecorderEdge, HaltDuringRecordingStillInstallsOrAborts)
{
    // The program halts while the recorder is in the Creating state.
    Program p = assemble(R"(
        main:
            mov ebp, 60
        head:
            add eax, 1
            dec ebp
            jne head
            out eax
            halt
    )");
    SelectorConfig cfg;
    cfg.hotThreshold = 58; // recording starts on the second-to-last lap
    auto recorder = recordRun(p, "mret", false, cfg);
    // Whatever the selector decided, the recorder must be consistent.
    EXPECT_FALSE(recorder->creating());
    EXPECT_EQ(recorder->tea().numTbbStates(),
              recorder->traces().totalBlocks());
}

TEST(RecorderEdge, MfetInstallsWithoutACreatingPhase)
{
    Program p = assemble(R"(
        main:
            mov ebp, 500
        head:
            add eax, 3
            dec ebp
            jne head
            out eax
            halt
    )");
    auto recorder = recordRun(p, "mfet", false);
    EXPECT_GT(recorder->installs(), 0u);
    EXPECT_GT(recorder->traces().size(), 0u);
    EXPECT_FALSE(recorder->creating());
}

TEST(RecorderEdge, StatsSurviveRebuilds)
{
    // Each install rebuilds the automaton; the accumulated counters
    // must keep counting across rebuilds (total == machine icount).
    Program p = assemble(R"(
        main:
            mov ebp, 900
            mov ebx, 5
        head:
            mul ebx, 1103515245
            add ebx, 12345
            mov eax, ebx
            shr eax, 16
            test eax, 3
            je rare
            add edi, 1
            jmp tail
        rare:
            sub edi, 2
        tail:
            dec ebp
            jne head
            out edi
            halt
    )");
    auto recorder = recordRun(p, "mret", false);
    Machine m(p);
    m.run();
    EXPECT_GT(recorder->installs(), 1u) << "need several rebuilds";
    EXPECT_EQ(recorder->stats().insnsTotal, m.icountRepAsOne());
    EXPECT_EQ(recorder->stats().blocks,
              recorder->stats().transitions + 1)
        << "every block but the final halt block transitions somewhere";
}

} // namespace
} // namespace tea
