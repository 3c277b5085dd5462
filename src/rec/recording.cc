#include "rec/recording.hh"

#include <chrono>

#include "obs/metrics.hh"
#include "rec/service.hh"
#include "trace/factory.hh"
#include "util/logging.hh"

namespace tea {
namespace rec {

namespace {

/** The instruments of an unbound session: every handle null. */
const RecMetrics kUnbound;

void
bump(obs::Counter *c)
{
    if (c != nullptr)
        c->inc();
}

} // namespace

RecordingSession::RecordingSession(std::string name,
                                   AutomatonRegistry &registry_,
                                   AutomatonStore *store_,
                                   RecordingConfig config,
                                   const RecMetrics *metrics_)
    : name_(std::move(name)), registry(registry_), store(store_),
      cfg(std::move(config)),
      metrics(metrics_ != nullptr ? metrics_ : &kUnbound),
      recorder(makeSelector(cfg.selector))
{
    // Store-name rules apply even without a store attached, so a
    // recording can always be persisted later.
    if (!AutomatonStore::validName(name_))
        fatal("rec: invalid automaton name '%s'", name_.c_str());
    if (cfg.swapInterval == 0)
        fatal("rec: swap interval must be positive");
    bump(metrics->sessions);
    bump(metrics->recompilesFull); // the recorder's initial NTE image
    // Resolve the per-automaton ingest series once; feed() then pays
    // one relaxed fetch_add, not a label-map lookup per transition.
    if (metrics->transitionsBy != nullptr)
        transitionsBy_ = &metrics->transitionsBy->at(name_);
}

RecordingSession::~RecordingSession()
{
    if (!finished_)
        bump(metrics->aborted);
    if (owner != nullptr)
        owner->release(name_);
}

void
RecordingSession::feed(const BlockTransition &tr)
{
    TEA_ASSERT(!finished_, "rec: feed after finish");
    uint64_t installs = recorder.installs();
    size_t traces = recorder.traces().size();
    recorder.feed(tr);
    if (recorder.installs() != installs) {
        // A new trace extended the recorder's image; an extended trace
        // rebuilt it.
        unpublished = true;
        bump(recorder.traces().size() != traces
                 ? metrics->recompilesIncremental
                 : metrics->recompilesFull);
    }
    ++transitionCount;
    ++sinceSwap;
    bump(metrics->transitions);
    bump(transitionsBy_);
    maybeSwap();
}

void
RecordingSession::feedBatch(const BlockTransition *batch, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        feed(batch[i]);
}

void
RecordingSession::maybeSwap()
{
    if (sinceSwap < cfg.swapInterval)
        return;
    // An idle interval publishes nothing; the next starts from here.
    if (unpublished)
        swapNow();
    sinceSwap = 0;
}

void
RecordingSession::swapNow()
{
    auto t0 = std::chrono::steady_clock::now();

    // The recorder's own image, with one immutable copy of its
    // automaton attached as the source: nothing is compiled here.
    current_ = recorder.image()->withSource(
        std::make_shared<const Tea>(recorder.tea()));
    unpublished = false;
    sinceSwap = 0;

    // Publish: new requests resolve the grown automaton; in-flight
    // replays keep the snapshot they pinned.
    if (store != nullptr)
        store->replaceResident(name_, current_);
    else
        registry.replace(name_, current_);
    ++swapCount;

    bump(metrics->swaps);
    if (metrics->swapMs != nullptr)
        metrics->swapMs->observe(std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
}

RecordingResultSummary
RecordingSession::finish()
{
    TEA_ASSERT(!finished_, "rec: finish called twice");

    // Publish any unpublished growth; also publish at least once so a
    // trace-free recording still leaves the name resolvable (an
    // all-NTE automaton replays every stream as untraced).
    if (current_ == nullptr || unpublished)
        swapNow();

    if (store != nullptr)
        store->writeThrough(name_, *current_);

    finished_ = true;
    RecordingResultSummary out;
    out.transitions = transitionCount;
    out.traces = recorder.traces().size();
    out.states = recorder.tea().numStates();
    out.swaps = swapCount;
    return out;
}

} // namespace rec
} // namespace tea
