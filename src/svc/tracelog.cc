#include "svc/tracelog.hh"

#include <algorithm>

#include "tea/compiled.hh"
#include "tea/replayer.hh"
#include "util/bytes.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/mmap.hh"
#include "util/varint.hh"

namespace tea {

namespace {

/** File-write buffer: chunks accumulate here between write() calls. */
constexpr size_t kWriteBuffer = 256 * 1024;

constexpr uint8_t kMaxEdgeKind = static_cast<uint8_t>(EdgeKind::Halt);

/**
 * The decode cursor of the batch kernel: a raw pointer pair. The
 * varint fast path checks bounds once (a varint spans at most 10
 * bytes), not per byte — decodeChunk() runs it for every field of
 * every record except the last few of a chunk.
 */
struct ByteReader
{
    const uint8_t *p;
    const uint8_t *end;

    size_t left() const { return static_cast<size_t>(end - p); }

    uint8_t
    u8()
    {
        if (p == end)
            fatal("transition record: truncated input");
        return *p++;
    }

    uint64_t
    var()
    {
        if (left() >= 10) {
            uint64_t v = 0;
            for (int shift = 0; shift <= 63; shift += 7) {
                uint8_t byte = *p++;
                v |= static_cast<uint64_t>(byte & 0x7f) << shift;
                if (!(byte & 0x80))
                    return v;
            }
            fatal("transition record: varint too long");
        }
        uint64_t v = 0;
        int shift = 0;
        for (;;) {
            uint8_t byte = u8();
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
            shift += 7;
            if (shift > 63)
                fatal("transition record: varint too long");
        }
    }
};

/** Decode one v1/raw record through the pointer cursor. */
TEA_HOT_INLINE BlockTransition
decodeRawRecord(ByteReader &r)
{
    BlockTransition tr;
    uint64_t start = r.var();
    uint64_t span = r.var();
    if (start > kNoAddr || span > kNoAddr - start)
        fatal("transition record: out-of-range block bounds");
    tr.from.start = static_cast<Addr>(start);
    tr.from.end = static_cast<Addr>(start + span);
    tr.from.icount = r.var();
    uint8_t kind = r.u8();
    if (kind > kMaxEdgeKind)
        fatal("transition record: bad edge kind %u", kind);
    tr.kind = static_cast<EdgeKind>(kind);
    uint64_t to = r.var();
    if (to > kNoAddr)
        fatal("transition record: out-of-range destination");
    tr.toStart = static_cast<Addr>(to);
    return tr;
}

// ------------------------------------------------- v2 delta records
//
// One tag byte, then only the fields the tag says are present:
//
//   bit 0  same-start: from.start == previous record's toStart
//   bit 1  new-block:  explicit varint span + varint icount follow
//                      (and update the chunk dictionary); absent, the
//                      dictionary entry for from.start supplies both
//   bit 2  halt:       toStart = kNoAddr, no destination field
//   bits 3-4           reserved, must be zero
//   bits 5-7           edge kind (0..6)
//
// Field order after the tag: [zigzag from.start delta from the base —
// the previous toStart, or 0 at a chunk start / after a halt] when
// not same-start; [varint span, varint icount] when new-block;
// [zigzag toStart delta from from.start] when not halt. All state is
// per chunk: every chunk decodes standalone, which is what keeps
// salvage's whole-chunk-prefix guarantee intact.

constexpr uint8_t kTagSameStart = 0x01;
constexpr uint8_t kTagNewBlock = 0x02;
constexpr uint8_t kTagHalt = 0x04;
constexpr uint8_t kTagReserved = 0x18;
constexpr int kTagKindShift = 5;

struct DictEntry
{
    Addr span;
    uint64_t icount;
};

/**
 * The codec's per-chunk maps — the block dictionary (one find() per
 * delta record, one put() per distinct block) and the elision
 * predictor's edge-kind table. Open addressing with linear probing and
 * a multiplicative hash: the per-record cost is one multiply and
 * (almost always) one probe, where unordered_map's bucket chase alone
 * made v2 decode measurably slower than v1, and its node frees made
 * every chunk boundary pay for the previous chunk.
 */
template <class Key, class Value>
class StampedMap
{
  public:
    /**
     * O(1) between-chunk reset: bumping the generation invalidates
     * every slot without touching the table, and the table keeps its
     * grown capacity — a reused map does no allocation and no memset
     * at a chunk boundary, where assign()-style clearing was a
     * measurable share of the per-record decode budget. The first
     * clear() allocates, so a map that is never used costs nothing;
     * call it before any find() or put().
     */
    void
    clear()
    {
        if (slots.empty())
            rehash(1u << 9);
        count = 0;
        if (++gen == 0) {
            // Stamp wrap-around: re-zero once every 2^32 clears so a
            // stale stamp can never alias the new generation.
            for (Slot &sl : slots)
                sl.stamp = 0;
            gen = 1;
        }
    }

    const Value *
    find(Key key) const
    {
        for (size_t i = slot(key);; i = (i + 1) & mask) {
            const Slot &sl = slots[i];
            if (sl.stamp != gen)
                return nullptr;
            if (sl.key == key)
                return &sl.value;
        }
    }

    void
    put(Key key, Value v)
    {
        if ((count + 1) * 10 >= capacity * 7)
            grow();
        for (size_t i = slot(key);; i = (i + 1) & mask) {
            Slot &sl = slots[i];
            if (sl.stamp != gen) {
                sl.stamp = gen;
                sl.key = key;
                sl.value = v;
                ++count;
                return;
            }
            if (sl.key == key) {
                sl.value = v;
                return;
            }
        }
    }

  private:
    /** One probe touches one cache line: key, stamp, and payload live
     * together rather than in parallel arrays. */
    struct Slot
    {
        Key key{};
        uint32_t stamp = 0;
        Value value{};
    };

    static uint64_t hashKey(uint32_t key) { return key * 0x9e3779b1ull; }
    static uint64_t
    hashKey(uint64_t key)
    {
        return (key * 0x9e3779b97f4a7c15ull) >> 32;
    }

    size_t slot(Key key) const { return hashKey(key) & mask; }

    void
    rehash(size_t cap)
    {
        capacity = cap;
        mask = cap - 1;
        slots.assign(cap, Slot{});
        gen = 1;
        count = 0;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots);
        uint32_t oldGen = gen;
        rehash(capacity * 2);
        for (const Slot &sl : old)
            if (sl.stamp == oldGen)
                put(sl.key, sl.value);
    }

    std::vector<Slot> slots;
    uint32_t gen = 0;
    size_t capacity = 0;
    size_t mask = 0;
    size_t count = 0;
};

/**
 * Elision: the label last taken out of each automaton state this
 * chunk — a flat array indexed by state id, cleared in O(1) by the
 * same generation-stamp scheme as StampedMap.
 */
class StateLabels
{
  public:
    /** Start a chunk over an automaton of `states` states. */
    void
    reset(uint32_t states)
    {
        if (slots.size() < states)
            slots.resize(states);
        if (++gen == 0) {
            for (Slot &sl : slots)
                sl.stamp = 0;
            gen = 1;
        }
    }

    const Addr *
    find(StateId s) const
    {
        const Slot &sl = slots[s];
        return sl.stamp == gen ? &sl.label : nullptr;
    }

    void put(StateId s, Addr label) { slots[s] = Slot{gen, label}; }

  private:
    struct Slot
    {
        uint32_t stamp = 0;
        Addr label = 0;
    };

    std::vector<Slot> slots;
    uint32_t gen = 0;
};

struct DeltaState
{
    Addr prevTo = kNoAddr; ///< previous record's toStart; kNoAddr = none
    StampedMap<Addr, DictEntry> dict; ///< by from.start
    StateId pred = Tea::kNteState; ///< elision: the mirrored DFA state
    /** Elision: last kind seen on the (from.start, toStart) edge. */
    StampedMap<uint64_t, EdgeKind> edgeKind;
    /** Elision: last label taken out of each automaton state. */
    StateLabels lastSucc;

    /**
     * Reset to the chunk-boundary state. Tables keep their capacity,
     * so the per-thread scratch DeltaState (codecState()) makes the
     * codec allocation-free in steady state while every chunk still
     * decodes standalone — exactly the same observable behaviour as a
     * fresh DeltaState. Pass the automaton of an elided chunk to reset
     * the predictor's tables too.
     */
    void
    reset(const CompiledTea *elideWith = nullptr)
    {
        prevTo = kNoAddr;
        pred = Tea::kNteState;
        dict.clear();
        if (elideWith != nullptr) {
            edgeKind.clear();
            lastSucc.reset(elideWith->numStates());
        }
    }
};

/**
 * The calling thread's codec state. Every chunk, encoded or decoded,
 * starts with reset() and no chunk codec call nests in another, so the
 * writer and both decode paths share one per thread.
 */
DeltaState &
codecState()
{
    thread_local DeltaState st;
    return st;
}

constexpr uint64_t
edgeKey(Addr from, Addr to)
{
    return (static_cast<uint64_t>(from) << 32) | to;
}

void
encodeDeltaRecord(std::vector<uint8_t> &out, const BlockTransition &tr,
                  DeltaState &st)
{
    if (tr.from.end < tr.from.start)
        fatal("transition record: block with end < start");
    Addr span = tr.from.end - tr.from.start;
    uint8_t tag = static_cast<uint8_t>(tr.kind) << kTagKindShift;
    bool haveBase = st.prevTo != kNoAddr;
    bool sameStart = haveBase && tr.from.start == st.prevTo;
    if (sameStart)
        tag |= kTagSameStart;
    const DictEntry *it = st.dict.find(tr.from.start);
    bool newBlock =
        it == nullptr || it->span != span || it->icount != tr.from.icount;
    if (newBlock)
        tag |= kTagNewBlock;
    bool halt = tr.toStart == kNoAddr;
    if (halt)
        tag |= kTagHalt;
    out.push_back(tag);
    if (!sameStart)
        putVar(out,
               zigzag(static_cast<int64_t>(tr.from.start) -
                      static_cast<int64_t>(haveBase ? st.prevTo : 0)));
    if (newBlock) {
        putVar(out, span);
        putVar(out, tr.from.icount);
        st.dict.put(tr.from.start, DictEntry{span, tr.from.icount});
    }
    if (!halt)
        putVar(out, zigzag(static_cast<int64_t>(tr.toStart) -
                           static_cast<int64_t>(tr.from.start)));
    st.prevTo = halt ? kNoAddr : tr.toStart;
}

TEA_HOT_INLINE BlockTransition
decodeDeltaRecord(ByteReader &r, DeltaState &st)
{
    uint8_t tag = r.u8();
    if (tag & kTagReserved)
        fatal("transition record: reserved tag bits set");
    uint8_t kind = tag >> kTagKindShift;
    if (kind > kMaxEdgeKind)
        fatal("transition record: bad edge kind %u", kind);
    BlockTransition tr;
    tr.kind = static_cast<EdgeKind>(kind);
    bool haveBase = st.prevTo != kNoAddr;
    int64_t start;
    if (tag & kTagSameStart) {
        if (!haveBase)
            fatal("transition record: same-start without a base");
        start = st.prevTo;
    } else {
        start = static_cast<int64_t>(haveBase ? st.prevTo : 0) +
                unzigzag(r.var());
        if (start < 0 || start > static_cast<int64_t>(kNoAddr))
            fatal("transition record: out-of-range block start");
    }
    tr.from.start = static_cast<Addr>(start);
    if (tag & kTagNewBlock) {
        uint64_t span = r.var();
        if (span > kNoAddr - static_cast<Addr>(start))
            fatal("transition record: out-of-range block bounds");
        tr.from.end = static_cast<Addr>(start + span);
        tr.from.icount = r.var();
        st.dict.put(tr.from.start,
                    DictEntry{static_cast<Addr>(span), tr.from.icount});
    } else {
        const DictEntry *it = st.dict.find(tr.from.start);
        if (it == nullptr)
            fatal("transition record: block 0x%x missing from the "
                  "chunk dictionary",
                  tr.from.start);
        tr.from.end = tr.from.start + it->span;
        tr.from.icount = it->icount;
    }
    if (tag & kTagHalt) {
        tr.toStart = kNoAddr;
        st.prevTo = kNoAddr;
    } else {
        int64_t to = start + unzigzag(r.var());
        if (to < 0 || to >= static_cast<int64_t>(kNoAddr))
            fatal("transition record: out-of-range destination");
        tr.toStart = static_cast<Addr>(to);
        st.prevTo = tr.toStart;
    }
    return tr;
}

// -------------------------------------------------- elision predictor
//
// The writer and reader mirror the replayer's transition function
// exactly (TeaReplayer::CompiledKernel::step, tea/replayer.hh): from a
// trace state, scan its CSR successor run for the label; otherwise —
// and always from NTE — fall back to the global entry index. The state
// outcome is independent of LookupConfig (the local cache is value-
// transparent and the B-tree/flat-hash containers index the same
// mapping), which is what makes one predictor sound for every replay
// mode — and what lets the fused kernel take the replayer's own state
// as the mirrored state once the two meet.

StateId
predictAdvance(const CompiledTea &ct, StateId s, Addr label)
{
    if (label == kNoAddr)
        return s; // halt: the replayer stays put
    if (s != Tea::kNteState) {
        const CompiledTea::Succ *end = ct.succEnd(s);
        for (const CompiledTea::Succ *p = ct.succBegin(s); p != end; ++p)
            if (p->label == label)
                return p->target;
    }
    return ct.entryAt(label);
}

/**
 * The record the automaton predicts at this point, if any. The
 * destination is the label last taken out of the mirrored state this
 * chunk, defaulting to the state's first CSR successor before the
 * state has fired — last-value prediction anchored on the automaton,
 * so steady-state loop iterations predict perfectly while the
 * automaton prior covers the first visit. The previous destination
 * names the block (so from.start is forced), the dictionary supplies
 * span and icount, and the per-edge kind table supplies the kind the
 * (block, destination) edge carried last. Soundness never rests on a
 * guess being right: the writer compares the prediction against the
 * actual record and sets a bit only on exact equality, so
 * reconstruction is bit-identical by construction.
 */
TEA_HOT_INLINE bool
predictRecord(const CompiledTea &ct, const DeltaState &st,
              BlockTransition &out)
{
    if (st.prevTo == kNoAddr || st.pred == Tea::kNteState)
        return false;
    const DictEntry *it = st.dict.find(st.prevTo);
    if (it == nullptr)
        return false;
    Addr dest;
    if (const Addr *last = st.lastSucc.find(st.pred)) {
        dest = *last;
    } else {
        const CompiledTea::Succ *b = ct.succBegin(st.pred);
        if (ct.succEnd(st.pred) == b)
            return false;
        dest = b->label;
    }
    const EdgeKind *kind = st.edgeKind.find(edgeKey(st.prevTo, dest));
    if (kind == nullptr)
        return false;
    out.from.start = st.prevTo;
    out.from.end = st.prevTo + it->span;
    out.from.icount = it->icount;
    out.kind = *kind;
    out.toStart = dest;
    return true;
}

/**
 * Advance the elision predictor's dynamic tables past one explicit
 * record — writer and reader run this identically, before
 * predictAdvance() moves the mirrored state. A predicted record skips
 * it: the prediction just read its edge kind and its destination
 * (lastSucc, or the first successor that an unset lastSucc stands
 * for), so writing them back would store what is already there.
 */
void
notePredictorTables(DeltaState &st, const BlockTransition &tr)
{
    st.edgeKind.put(edgeKey(tr.from.start, tr.toStart), tr.kind);
    if (st.pred != Tea::kNteState && tr.toStart != kNoAddr)
        st.lastSucc.put(st.pred, tr.toStart);
}

/**
 * Decode record `i` of an elided chunk: the prediction when its bitset
 * bit is set (an unpredictable set bit is corruption, CRC or not),
 * else the explicit delta record, which also updates the predictor's
 * tables. The caller advances `st.pred`.
 */
TEA_HOT_INLINE BlockTransition
decodeElidedRecord(const CompiledTea &ct, const uint8_t *bits, uint32_t i,
                   ByteReader &r, DeltaState &st)
{
    BlockTransition tr;
    if ((bits[i >> 3] >> (i & 7)) & 1) {
        if (!predictRecord(ct, st, tr))
            fatal("tracelog: elided record %u is not predictable", i);
        st.prevTo = tr.toStart;
    } else {
        tr = decodeDeltaRecord(r, st);
        notePredictorTables(st, tr);
    }
    return tr;
}

bool
sameTransition(const BlockTransition &a, const BlockTransition &b)
{
    return a.from.start == b.from.start && a.from.end == b.from.end &&
           a.from.icount == b.from.icount && a.kind == b.kind &&
           a.toStart == b.toStart;
}

// ---------------------------------------------------- chunk framing
//
// The container and the wire share one chunk frame:
//
//   u32 record count  [v2: u8 encoding]  u32 payload bytes  payload
//   u32 CRC-32        ; v1: over the payload; v2: over head + payload
//
// These are the only places that build, parse, or validate it.

/** v2 chunk head: u32 record count, u8 encoding, u32 payload bytes. */
constexpr size_t kV2ChunkHead = 9;

/**
 * Read and check the container header; returns its version. Bad
 * magic/version throws even in salvage mode: a log whose first eight
 * bytes are wrong proves nothing, so there is no prefix to recover.
 */
uint32_t
readContainerHeader(PayloadReader &r)
{
    if (r.u32() != TraceLogFormat::kMagic)
        fatal("tracelog: bad magic");
    uint32_t version = r.u32();
    if (version != TraceLogFormat::kVersion &&
        version != TraceLogFormat::kVersionV1)
        fatal("tracelog: unsupported version");
    return version;
}

/** Append one chunk frame around an encoded payload. */
void
appendChunkFrame(std::vector<uint8_t> &out, uint32_t version,
                 ChunkEncoding enc, uint32_t records,
                 const std::vector<uint8_t> &payload)
{
    size_t head = out.size();
    PayloadWriter w(out);
    w.u32(records);
    if (version >= 2)
        w.u8(static_cast<uint8_t>(enc));
    w.u32(static_cast<uint32_t>(payload.size()));
    w.raw(payload.data(), payload.size());
    // v2 CRCs cover the chunk head too: a flipped encoding byte or
    // record count must not pass as a valid chunk of another shape.
    size_t covered = version >= 2 ? head : out.size() - payload.size();
    w.u32(crc32(out.data() + covered, out.size() - covered));
}

/**
 * Parse and validate the rest of one chunk frame whose non-zero
 * record count the caller just read: the encoding, the record cap,
 * the records-versus-bytes rule (every record costs at least one
 * payload byte, or one bitset bit when elided), and the CRC. The
 * payload itself is left to decodeChunk().
 */
TraceChunkView
readChunkFrame(PayloadReader &r, uint32_t version, uint32_t records)
{
    TraceChunkView chunk;
    chunk.records = records;
    if (version >= 2) {
        uint8_t e = r.u8();
        if (e > static_cast<uint8_t>(ChunkEncoding::Elided))
            fatal("tracelog: bad chunk encoding %u", e);
        chunk.encoding = static_cast<ChunkEncoding>(e);
        if (records > TraceLogFormat::kMaxChunkRecords)
            fatal("tracelog: chunk record count %u exceeds limit %u",
                  records, TraceLogFormat::kMaxChunkRecords);
    }
    chunk.size = r.u32();
    if (chunk.size > r.remaining())
        fatal("tracelog: truncated chunk payload");
    size_t minBytes = chunk.encoding == ChunkEncoding::Elided
                          ? (static_cast<size_t>(records) + 7) / 8
                          : records;
    if (minBytes > chunk.size)
        fatal("tracelog: chunk record count %u exceeds payload bytes %zu",
              records, chunk.size);
    chunk.payload = r.raw(chunk.size);
    const uint8_t *covered =
        version >= 2 ? chunk.payload - kV2ChunkHead : chunk.payload;
    if (crc32(covered, static_cast<size_t>(chunk.payload + chunk.size -
                                           covered)) != r.u32())
        fatal("tracelog: chunk CRC mismatch");
    return chunk;
}

/** The trailer past its zero marker: the record total, then nothing. */
void
readTrailer(PayloadReader &r, uint64_t records)
{
    uint64_t expect = r.u64();
    if (expect != records)
        fatal("tracelog: trailer count %llu disagrees with %llu records",
              static_cast<unsigned long long>(expect),
              static_cast<unsigned long long>(records));
    r.expectEnd();
}

// ------------------------------------------------------ chunk walker

/**
 * Decode every record of one CRC-validated chunk payload, in order,
 * into `sink(i, record)`. The records stay in registers unless the
 * sink stores them. `sink.synced(pred)` says whether the sink's own
 * automaton state now equals the elision predictor's mirrored state
 * `pred`; once it does, the two take the same transitions (see
 * "elision predictor" above), so `pred` is read from `sink.state()`
 * instead of being walked a second time by predictAdvance(). Throws
 * FatalError on any malformed payload, after the sink has seen the
 * records before the bad one.
 */
template <class Sink>
TEA_HOT_INLINE void
walkChunk(const TraceChunkView &chunk, const CompiledTea *automaton,
          Sink &sink)
{
    ByteReader r{chunk.payload, chunk.payload + chunk.size};
    switch (chunk.encoding) {
    case ChunkEncoding::Raw:
        for (uint32_t i = 0; i < chunk.records; ++i)
            sink(i, decodeRawRecord(r));
        break;
    case ChunkEncoding::Delta: {
        DeltaState &st = codecState();
        st.reset();
        for (uint32_t i = 0; i < chunk.records; ++i)
            sink(i, decodeDeltaRecord(r, st));
        break;
    }
    case ChunkEncoding::Elided: {
        if (automaton == nullptr)
            fatal("tracelog: elided chunk needs the recording "
                  "automaton");
        const CompiledTea &ct = *automaton;
        size_t nbits = (static_cast<size_t>(chunk.records) + 7) / 8;
        if (chunk.size < nbits)
            fatal("tracelog: truncated elision bitset");
        const uint8_t *bits = chunk.payload;
        r.p = chunk.payload + nbits;
        DeltaState &st = codecState();
        st.reset(&ct);
        uint32_t i = 0;
        for (; i < chunk.records && !sink.synced(st.pred); ++i) {
            BlockTransition tr = decodeElidedRecord(ct, bits, i, r, st);
            sink(i, tr);
            st.pred = predictAdvance(ct, st.pred, tr.toStart);
        }
        for (; i < chunk.records; ++i) {
            st.pred = sink.state();
            sink(i, decodeElidedRecord(ct, bits, i, r, st));
        }
        break;
    }
    default:
        fatal("tracelog: bad chunk encoding %u",
              static_cast<unsigned>(chunk.encoding));
    }
    if (r.p != r.end)
        fatal("tracelog: %zu undecoded payload bytes", r.left());
}

/** The two-pass sink: store each record for feedAll(). It has no
 *  automaton state, so the predictor always walks its own. */
struct StoreRecords
{
    BlockTransition *dst;

    void operator()(uint32_t i, const BlockTransition &tr) { dst[i] = tr; }
    static bool synced(StateId) { return false; }
    static StateId state() { return Tea::kNteState; }
};

/** The fused sink: step the compiled kernel on each record. */
struct StepReplayer
{
    TeaReplayer::CompiledRun run;

    TEA_HOT_INLINE void
    operator()(uint32_t, const BlockTransition &tr)
    {
        run.step(tr.from.start, tr.from.icount, tr.toStart);
    }
    bool synced(StateId pred) const { return pred == run.state(); }
    StateId state() const { return run.state(); }
};

} // namespace

// ----------------------------------------------------- shared codec

void
encodeTransition(std::vector<uint8_t> &out, const BlockTransition &tr)
{
    if (tr.from.end < tr.from.start)
        fatal("transition record: block with end < start");
    putVar(out, tr.from.start);
    putVar(out, tr.from.end - tr.from.start);
    putVar(out, tr.from.icount);
    out.push_back(static_cast<uint8_t>(tr.kind));
    putVar(out, tr.toStart);
}

BlockTransition
decodeTransition(const uint8_t *data, size_t len, size_t &cursor)
{
    if (cursor > len)
        fatal("transition record: truncated input");
    ByteReader r{data + cursor, data + len};
    BlockTransition tr = decodeRawRecord(r);
    cursor = static_cast<size_t>(r.p - data);
    return tr;
}

void
encodeChunkPayload(std::vector<uint8_t> &out, ChunkEncoding encoding,
                   const BlockTransition *batch, size_t n,
                   const CompiledTea *automaton)
{
    switch (encoding) {
    case ChunkEncoding::Raw:
        for (size_t i = 0; i < n; ++i)
            encodeTransition(out, batch[i]);
        return;
    case ChunkEncoding::Delta: {
        DeltaState &st = codecState();
        st.reset();
        for (size_t i = 0; i < n; ++i)
            encodeDeltaRecord(out, batch[i], st);
        return;
    }
    case ChunkEncoding::Elided: {
        if (automaton == nullptr)
            fatal("tracelog: elided encoding needs an automaton");
        const CompiledTea &ct = *automaton;
        size_t base = out.size();
        out.resize(base + (n + 7) / 8, 0);
        std::vector<uint8_t> fallback;
        DeltaState &st = codecState();
        st.reset(&ct);
        for (size_t i = 0; i < n; ++i) {
            BlockTransition predicted;
            if (predictRecord(ct, st, predicted) &&
                sameTransition(predicted, batch[i])) {
                out[base + (i >> 3)] |=
                    static_cast<uint8_t>(1u << (i & 7));
                // A predicted destination is a successor label, never
                // kNoAddr, so the base always stays valid here.
                st.prevTo = batch[i].toStart;
            } else {
                encodeDeltaRecord(fallback, batch[i], st);
                notePredictorTables(st, batch[i]);
            }
            st.pred = predictAdvance(ct, st.pred, batch[i].toStart);
        }
        out.insert(out.end(), fallback.begin(), fallback.end());
        return;
    }
    }
    fatal("tracelog: bad chunk encoding %u",
          static_cast<unsigned>(encoding));
}

void
decodeChunk(const TraceChunkView &chunk, const CompiledTea *automaton,
            std::vector<BlockTransition> &out)
{
    // Pre-size and write by index: the per-record push_back capacity
    // check and size bump measurably lengthen the kernel's dependency
    // chain. On a decode error the caller discards `out` wholesale, so
    // the default-constructed tail is never observed.
    size_t base = out.size();
    out.resize(base + chunk.records);
    StoreRecords sink{out.data() + base};
    walkChunk(chunk, automaton, sink);
}

void
replayChunk(const TraceChunkView &chunk, const CompiledTea *automaton,
            TeaReplayer &replayer)
{
    TEA_ASSERT(replayer.compiledTea() != nullptr &&
                   (automaton == nullptr ||
                    automaton == replayer.compiledTea()),
               "tracelog: the fused kernel needs a compiled replayer "
               "walking the elision automaton");
    StepReplayer sink{TeaReplayer::CompiledRun(replayer)};
    walkChunk(chunk, automaton, sink);
    sink.run.commit();
}

// ------------------------------------------------------- wire chunks

void
encodeWireChunk(std::vector<uint8_t> &out, const BlockTransition *batch,
                size_t n)
{
    std::vector<uint8_t> payload;
    encodeChunkPayload(payload, ChunkEncoding::Delta, batch, n);
    appendChunkFrame(out, TraceLogFormat::kVersion, ChunkEncoding::Delta,
                     static_cast<uint32_t>(n), payload);
}

std::vector<BlockTransition>
decodeWireChunk(const uint8_t *data, size_t len)
{
    PayloadReader r(data, len, "tracelog");
    uint32_t records = r.u32();
    TraceChunkView chunk =
        readChunkFrame(r, TraceLogFormat::kVersion, records);
    if (chunk.encoding == ChunkEncoding::Elided)
        fatal("tracelog: elided chunks are not valid on the wire");
    r.expectEnd();
    std::vector<BlockTransition> out;
    decodeChunk(chunk, nullptr, out);
    return out;
}

// ---------------------------------------------------------------- writer

TraceLogWriter::TraceLogWriter(const std::string &file_path,
                               TraceLogOptions options)
    : opts(std::move(options)), file(file_path, std::ios::binary),
      path(file_path)
{
    writeHeader();
}

TraceLogWriter::TraceLogWriter(std::vector<uint8_t> *sink,
                               TraceLogOptions options)
    : opts(std::move(options)), mem(sink)
{
    TEA_ASSERT(sink != nullptr, "tracelog: null memory sink");
    memBase = sink->size();
    writeHeader();
}

TraceLogWriter::~TraceLogWriter()
{
    try {
        finish();
    } catch (...) {
        // Destructors must not throw; an explicit finish() reports
        // write failures to the caller.
    }
}

void
TraceLogWriter::writeHeader()
{
    if (opts.version != TraceLogFormat::kVersion &&
        opts.version != TraceLogFormat::kVersionV1)
        fatal("tracelog: unsupported writer version %u", opts.version);
    if (opts.elideWith && opts.version == TraceLogFormat::kVersionV1)
        fatal("tracelog: elision needs container version 2");
    if (!mem && !file)
        fatal("cannot open '%s' for writing", path.c_str());
    PayloadWriter w(out());
    w.u32(TraceLogFormat::kMagic);
    w.u32(opts.version);
}

void
TraceLogWriter::drainToFile(bool force)
{
    if (mem || obuf.empty())
        return;
    if (!force && obuf.size() < kWriteBuffer)
        return;
    file.write(reinterpret_cast<const char *>(obuf.data()),
               static_cast<std::streamsize>(obuf.size()));
    if (!file)
        fatal("error writing '%s'", path.c_str());
    drained += obuf.size();
    obuf.clear();
}

void
TraceLogWriter::append(const BlockTransition &tr)
{
    TEA_ASSERT(!finished, "tracelog: append after finish");
    if (tr.from.end < tr.from.start)
        fatal("transition record: block with end < start");
    pending.push_back(tr);
    ++total;
    if (pending.size() >= TraceLogFormat::kChunkRecords)
        flushChunk();
}

void
TraceLogWriter::flushChunk()
{
    if (pending.empty())
        return;
    ChunkEncoding enc = ChunkEncoding::Raw;
    if (opts.version >= 2)
        enc = opts.elideWith ? ChunkEncoding::Elided
                             : ChunkEncoding::Delta;
    scratch.clear();
    encodeChunkPayload(scratch, enc, pending.data(), pending.size(),
                       opts.elideWith.get());
    appendChunkFrame(out(), opts.version, enc,
                     static_cast<uint32_t>(pending.size()), scratch);
    pending.clear();
    drainToFile(false);
}

void
TraceLogWriter::finish()
{
    if (finished)
        return;
    flushChunk();
    PayloadWriter w(out());
    w.u32(0);
    w.u64(total);
    drainToFile(true);
    if (file.is_open()) {
        file.flush();
        if (!file)
            fatal("error writing '%s'", path.c_str());
    }
    finished = true;
}

// ---------------------------------------------------------------- reader

TraceLogReader::TraceLogReader(std::vector<uint8_t> bytes, Mode m,
                               const CompiledTea *ct)
    : owned(std::move(bytes)), in(owned.data(), owned.size(), "tracelog"),
      automaton(ct), version_(readContainerHeader(in)), mode(m)
{
}

TraceLogReader::TraceLogReader(const uint8_t *d, size_t n, Mode m,
                               const CompiledTea *ct)
    : in(d, n, "tracelog"), automaton(ct),
      version_(readContainerHeader(in)), mode(m)
{
}

TraceLogReader
TraceLogReader::openFile(const std::string &path, Mode m,
                         const CompiledTea *ct)
{
    // mmap instead of a read-ahead copy: the kernel pages the log in
    // as decode walks it, and a multi-gigabyte log costs no heap.
    std::shared_ptr<const MappedFile> mf = MappedFile::openShared(path);
    TraceLogReader reader(mf->data(), mf->size(), m, ct);
    reader.map = std::move(mf);
    return reader;
}

void
TraceLogReader::loadChunk()
{
    if (mode == Mode::Salvage) {
        size_t left = in.remaining();
        try {
            loadChunkStrict();
        } catch (const FatalError &e) {
            // The chunk starting at chunkStart is torn: drop any
            // half-decoded records (they were never CRC-validated in
            // full) and end the stream at the last good chunk.
            chunk.clear();
            chunkPos = 0;
            done = true;
            torn_ = true;
            tornReason_ = e.what();
            discarded = left;
        }
        return;
    }
    loadChunkStrict();
}

bool
TraceLogReader::readFrame(TraceChunkView &view)
{
    uint32_t records = in.u32();
    if (records == 0) {
        readTrailer(in, decoded);
        done = true;
        return false;
    }
    view = readChunkFrame(in, version_, records);
    decoded += records;
    return true;
}

void
TraceLogReader::loadChunkStrict()
{
    TraceChunkView view;
    if (!readFrame(view))
        return;
    chunk.clear();
    // The whole CRC-validated chunk decodes through the batch kernel;
    // a record that would read past the payload fails as truncation
    // instead of bleeding into the CRC word.
    decodeChunk(view, automaton, chunk);
    chunkPos = 0;
}

bool
TraceLogReader::nextFrame(TraceChunkView &view)
{
    TEA_ASSERT(mode == Mode::Strict,
               "tracelog: salvage decodes whole chunks, not frames");
    TEA_ASSERT(chunkPos >= chunk.size(),
               "tracelog: nextFrame() with records still unread");
    if (done || !readFrame(view))
        return false;
    surfaced += view.records;
    return true;
}

bool
TraceLogReader::next(BlockTransition &out)
{
    while (chunkPos >= chunk.size()) {
        if (done)
            return false;
        chunk.clear();
        chunkPos = 0;
        loadChunk();
    }
    out = chunk[chunkPos++];
    ++surfaced;
    return true;
}

const std::vector<BlockTransition> *
TraceLogReader::nextChunk()
{
    TEA_ASSERT(chunkPos >= chunk.size(),
               "tracelog: nextChunk() with records still unread");
    if (done)
        return nullptr;
    chunk.clear();
    chunkPos = 0;
    loadChunk();
    if (chunk.empty())
        return nullptr; // trailer, or the tear in salvage mode
    chunkPos = chunk.size();
    surfaced += chunk.size();
    return &chunk;
}

std::vector<BlockTransition>
readTraceLog(std::vector<uint8_t> bytes, const CompiledTea *automaton)
{
    TraceLogReader reader(std::move(bytes), TraceLogReader::Mode::Strict,
                          automaton);
    std::vector<BlockTransition> all;
    while (const std::vector<BlockTransition> *c = reader.nextChunk())
        all.insert(all.end(), c->begin(), c->end());
    return all;
}

// ------------------------------------------------------------- inspect

TraceLogInfo
inspectTraceLog(const uint8_t *data, size_t len)
{
    TraceLogInfo info;
    info.fileBytes = len;
    PayloadReader r(data, len, "tracelog");
    info.version = readContainerHeader(r);
    while (uint32_t records = r.u32()) {
        TraceChunkView chunk = readChunkFrame(r, info.version, records);
        TraceLogChunkInfo ci;
        ci.encoding = chunk.encoding;
        ci.records = records;
        ci.payloadBytes = static_cast<uint32_t>(chunk.size);
        switch (ci.encoding) {
        case ChunkEncoding::Raw:
            ++info.rawChunks;
            break;
        case ChunkEncoding::Delta:
            ++info.deltaChunks;
            break;
        case ChunkEncoding::Elided: {
            ++info.elidedChunks;
            size_t nbits = (static_cast<size_t>(records) + 7) / 8;
            for (size_t i = 0; i < nbits; ++i) {
                uint8_t byte = chunk.payload[i];
                if (i == nbits - 1 && (records & 7) != 0)
                    byte &= static_cast<uint8_t>(
                        (1u << (records & 7)) - 1);
                ci.elidedRecords +=
                    static_cast<uint32_t>(__builtin_popcount(byte));
            }
            break;
        }
        }
        info.records += records;
        info.payloadBytes += chunk.size;
        info.elidedRecords += ci.elidedRecords;
        info.chunks.push_back(ci);
    }
    readTrailer(r, info.records);
    return info;
}

} // namespace tea
