#include "tea/compiled.hh"

#include <atomic>
#include <cstring>

#include "tea/serialize.hh"
#include "tea/teac.hh"
#include "util/logging.hh"
#include "util/mmap.hh"

namespace tea {

namespace {

std::atomic<uint64_t> compileCounter{0};
std::atomic<uint64_t> recompileCounter{0};

/** Smallest power of two >= 2 * n (min 8): keeps the open-addressed
 *  table at most half full, so probe chains stay short. */
uint32_t
hashCapacity(size_t n)
{
    uint32_t cap = 8;
    while (cap < 2 * n)
        cap *= 2;
    return cap;
}

} // namespace

CompiledTea::CompiledTea(const Tea &tea)
{
    compileCounter.fetch_add(1, std::memory_order_relaxed);
    build(tea, nullptr, /*embedSource=*/true);
}

void
CompiledTea::build(const Tea &tea, const CompiledTea *prefix,
                   bool embedSource)
{
    // A full compile is the delta from the NTE-only prefix.
    uint32_t prevN = prefix != nullptr ? prefix->nStates : 1;
    uint64_t succTotal = prefix != nullptr ? prefix->nSuccs_ : 0;
    nStates = static_cast<uint32_t>(tea.numStates());
    nEntries_ = static_cast<uint32_t>(tea.entries().size());
    TEA_ASSERT(nStates >= prevN, "compiled prefix is larger than the "
               "automaton");
    if (prefix != nullptr && prevN > 1) {
        // Spot-check the append-only claim against the last reused
        // state; the full differential lives in tests/test_rec.cc.
        const TeaState &last = tea.state(prevN - 1);
        TEA_ASSERT(prefix->stateStartP[prevN - 1] == last.start &&
                       prefix->stateMetaP[prevN - 1].trace == last.trace,
                   "previous snapshot is not a prefix of the grown "
                   "automaton");
    }

    for (StateId id = prevN; id < nStates; ++id)
        succTotal += tea.state(id).succs.size();
    TEA_ASSERT(succTotal <= 0xffffffffull, "transition count overflow");
    nSuccs_ = static_cast<uint32_t>(succTotal);

    uint32_t cap = hashCapacity(nEntries_);
    hashMask = cap - 1;

    // The source .tea copy is the one section whose cost scales with
    // the whole automaton, so deltas skip it (see serialize()).
    std::vector<uint8_t> blob;
    if (embedSource)
        blob = saveTea(tea);
    TEA_ASSERT(blob.size() <= 0xffffffffull, "source TEA blob overflow");
    teaBlobLen_ = static_cast<uint32_t>(blob.size());

    // Build every section in place inside one arena laid out exactly as
    // the .teac payload, so serialize() is a verbatim copy and a mapped
    // image is indistinguishable from a fresh compile.
    TeacLayout lay =
        TeacLayout::compute(nStates, nSuccs_, nEntries_, cap, teaBlobLen_);
    auto buf = std::make_shared<std::vector<uint8_t>>(lay.payloadBytes, 0);
    uint8_t *base = buf->data();
    auto *succOffset = reinterpret_cast<uint32_t *>(base + lay.offSuccOffset);
    auto *succsOut = reinterpret_cast<Succ *>(base + lay.offSuccs);
    auto *stateStart = reinterpret_cast<Addr *>(base + lay.offStateStart);
    auto *stateMeta = reinterpret_cast<StateMeta *>(base + lay.offStateMeta);
    auto *hashSlots = reinterpret_cast<HashSlot *>(base + lay.offHashSlots);
    auto *entriesOut = reinterpret_cast<Entry *>(base + lay.offEntries);

    if (prefix != nullptr) {
        // Reused prefix: verbatim copies out of the previous arena
        // (owned or mapped; the typed pointers read the same).
        std::memcpy(succOffset, prefix->succOffsetP,
                    (size_t(prevN) + 1) * sizeof(uint32_t));
        std::memcpy(succsOut, prefix->succsP,
                    size_t(prefix->nSuccs_) * sizeof(Succ));
        std::memcpy(stateStart, prefix->stateStartP,
                    size_t(prevN) * sizeof(Addr));
        std::memcpy(stateMeta, prefix->stateMetaP,
                    size_t(prevN) * sizeof(StateMeta));
    } else {
        // NTE (slot 0): kNoAddr / ~0u identity and an empty successor
        // run (its out-transitions are the entry index below).
        stateStart[0] = kNoAddr;
        stateMeta[0] = StateMeta{~0u, ~0u};
        succOffset[0] = 0;
        succOffset[1] = 0;
    }

    // The states past the prefix: SoA metadata first, since a CSR
    // record inlines its target's start address as the label.
    for (StateId id = prevN; id < nStates; ++id) {
        const TeaState &st = tea.state(id);
        stateStart[id] = st.start;
        stateMeta[id] = StateMeta{st.trace, st.tbb};
    }
    for (StateId id = prevN; id < nStates; ++id) {
        const TeaState &st = tea.state(id);
        succOffset[id + 1] =
            succOffset[id] + static_cast<uint32_t>(st.succs.size());
        uint32_t at = succOffset[id];
        for (StateId t : st.succs)
            succsOut[at++] = Succ{stateStart[t], t};
    }

    // Entry index, always rebuilt in full: flat sorted array + open-
    // addressed hash. O(traces), and Tea::entries() iterates sorted by
    // address, so the hash fill order (hence the bytes) is canonical.
    for (uint32_t i = 0; i < cap; ++i)
        hashSlots[i] = HashSlot{kNoAddr, Tea::kNteState};
    uint32_t at = 0;
    for (const auto &[addr, id] : tea.entries()) {
        TEA_ASSERT(addr != kNoAddr, "entry at the invalid address");
        entriesOut[at++] = Entry{addr, id};
        uint32_t slot = hashOf(addr) & hashMask;
        while (hashSlots[slot].addr != kNoAddr)
            slot = (slot + 1) & hashMask;
        hashSlots[slot] = HashSlot{addr, id};
    }

    if (!blob.empty())
        std::memcpy(base + lay.offTea, blob.data(), blob.size());

    arena = std::move(buf);
    payloadP = base;
    payloadLen = lay.payloadBytes;
    succOffsetP = succOffset;
    succsP = succsOut;
    stateStartP = stateStart;
    stateMetaP = stateMeta;
    hashSlotsP = hashSlots;
    entriesP = entriesOut;
    teaBlobP = base + lay.offTea;
}

std::shared_ptr<const CompiledTea>
CompiledTea::compile(std::shared_ptr<const Tea> tea)
{
    TEA_ASSERT(tea != nullptr, "compiling a null automaton snapshot");
    return CompiledTea(*tea).withSource(std::move(tea));
}

std::shared_ptr<const CompiledTea>
CompiledTea::extend(const Tea &tea, const CompiledTea &prev)
{
    recompileCounter.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<CompiledTea> compiled(new CompiledTea());
    compiled->build(tea, &prev, /*embedSource=*/false);
    return compiled;
}

std::shared_ptr<const CompiledTea>
CompiledTea::withSource(std::shared_ptr<const Tea> tea) const
{
    TEA_ASSERT(tea != nullptr && tea->numStates() == nStates,
               "source automaton does not match the compiled image");
    // A shallow copy: the arena is shared, so its typed pointers stay
    // valid and nothing is rebuilt.
    auto compiled = std::make_shared<CompiledTea>(*this);
    compiled->source = std::move(tea);
    return compiled;
}

std::shared_ptr<const CompiledTea>
CompiledTea::recompile(std::shared_ptr<const Tea> tea,
                       const std::shared_ptr<const CompiledTea> &prev,
                       bool appendOnly)
{
    TEA_ASSERT(tea != nullptr, "recompiling a null automaton snapshot");
    if (prev == nullptr || !appendOnly || tea->numStates() < prev->nStates)
        return compile(std::move(tea));
    // Append-only with no new states means no new trace: identical
    // automaton, nothing to build.
    if (tea->numStates() == prev->nStates)
        return prev;
    return extend(*tea, *prev)->withSource(std::move(tea));
}

std::shared_ptr<const CompiledTea>
CompiledTea::fromMapped(std::shared_ptr<const MappedFile> file,
                        bool verifyPayload)
{
    TEA_ASSERT(file != nullptr, "loading a null mapping");
    CompiledTeaView view =
        CompiledTeaView::parse(file->data(), file->size(), verifyPayload);
    std::shared_ptr<CompiledTea> compiled(new CompiledTea());
    compiled->adoptView(view);
    compiled->mapped = std::move(file);
    return compiled;
}

std::shared_ptr<const CompiledTea>
CompiledTea::fromFile(const std::string &path, bool verifyPayload)
{
    return fromMapped(MappedFile::openShared(path), verifyPayload);
}

void
CompiledTea::adoptView(const CompiledTeaView &view)
{
    nStates = view.header.nStates;
    nSuccs_ = view.header.nSuccs;
    nEntries_ = view.header.nEntries;
    hashMask = view.header.hashCap - 1;
    teaBlobLen_ = view.header.teaBytes;
    succOffsetP = view.succOffset;
    succsP = view.succs;
    stateStartP = view.stateStart;
    stateMetaP = view.stateMeta;
    hashSlotsP = view.hashSlots;
    entriesP = view.entries;
    teaBlobP = view.teaBlob;
    payloadP = view.payload;
    payloadLen = view.header.payloadBytes;
}

StateId
CompiledTea::stateFor(uint32_t trace, uint32_t tbb) const
{
    for (StateId id = 1; id < nStates; ++id)
        if (stateMetaP[id].trace == trace && stateMetaP[id].tbb == tbb)
            return id;
    return Tea::kNteState;
}

Tea
CompiledTea::rehydrateTea() const
{
    // Blobless delta snapshots carry their source live instead of
    // serialized.
    if (teaBlobLen_ == 0 && source != nullptr)
        return *source;
    return loadTea(std::vector<uint8_t>(teaBlobP, teaBlobP + teaBlobLen_));
}

size_t
CompiledTea::footprintBytes() const
{
    return (size_t(nStates) + 1) * sizeof(uint32_t) + // succOffset
           size_t(nSuccs_) * sizeof(Succ) +
           size_t(nStates) * sizeof(Addr) +           // stateStart
           size_t(nStates) * sizeof(StateMeta) +
           (size_t(hashMask) + 1) * sizeof(HashSlot) +
           size_t(nEntries_) * sizeof(Entry);
}

uint64_t
CompiledTea::compileCount()
{
    return compileCounter.load(std::memory_order_relaxed);
}

uint64_t
CompiledTea::recompileCount()
{
    return recompileCounter.load(std::memory_order_relaxed);
}

} // namespace tea
