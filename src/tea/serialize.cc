#include "tea/serialize.hh"

#include <fstream>

#include "util/bytes.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace tea {

namespace {

constexpr uint32_t kMagic = 0x54454141; // "TEAA"
constexpr uint32_t kVersion = 2;

} // namespace

std::vector<uint8_t>
saveTea(const Tea &tea)
{
    size_t n = tea.numTbbStates();

    // Count traces and their block counts; states are grouped by trace.
    std::vector<uint32_t> blocks_per_trace;
    for (size_t i = 1; i <= n; ++i) {
        const TeaState &s = tea.state(static_cast<StateId>(i));
        if (s.trace >= blocks_per_trace.size())
            blocks_per_trace.resize(s.trace + 1, 0);
        if (s.tbb != blocks_per_trace[s.trace])
            fatal("tea: states not grouped by trace; cannot serialize");
        ++blocks_per_trace[s.trace];
    }

    std::vector<uint8_t> out;
    PayloadWriter w(out);
    w.u32(kMagic);
    w.u32(kVersion);
    w.u32(static_cast<uint32_t>(n));
    w.u32(static_cast<uint32_t>(blocks_per_trace.size()));
    for (uint32_t count : blocks_per_trace)
        w.var(count);

    bool wide_ids = n >= 0xffff;
    w.u8(wide_ids ? 1 : 0);
    for (size_t i = 1; i <= n; ++i) {
        const TeaState &s = tea.state(static_cast<StateId>(i));
        w.u32(s.start);
        w.var(s.end - s.start);
        w.u8(s.loopHeader ? 1 : 0);
        w.var(s.succs.size());
        for (StateId t : s.succs) {
            if (wide_ids)
                w.u32(t);
            else
                w.u16(static_cast<uint16_t>(t));
        }
    }
    return out;
}

Tea
loadTea(const std::vector<uint8_t> &bytes)
{
    PayloadReader r(bytes, "tea");
    if (r.u32() != kMagic)
        fatal("tea: bad magic");
    if (r.u32() != kVersion)
        fatal("tea: unsupported version");
    uint32_t nstates = r.u32();
    uint32_t ntraces = r.u32();

    if (nstates > 100'000'000 || ntraces > nstates + 1)
        fatal("tea: implausible header (%u states, %u traces)", nstates,
              ntraces);
    std::vector<uint32_t> blocks_per_trace(ntraces);
    uint64_t total = 0;
    for (uint32_t i = 0; i < ntraces; ++i) {
        blocks_per_trace[i] = r.var32();
        if (blocks_per_trace[i] == 0)
            fatal("tea: trace %u has no blocks", i);
        total += blocks_per_trace[i];
    }
    if (total != nstates)
        fatal("tea: trace block counts (%llu) disagree with state count "
              "(%u)", static_cast<unsigned long long>(total), nstates);

    Tea tea;
    struct Pending
    {
        StateId id;
        std::vector<StateId> succs;
    };
    std::vector<Pending> pending;
    pending.reserve(nstates);

    bool wide_ids = r.u8() != 0;
    uint32_t trace = 0;
    uint32_t tbb = 0;
    for (uint32_t i = 0; i < nstates; ++i) {
        while (trace < ntraces && tbb >= blocks_per_trace[trace]) {
            ++trace;
            tbb = 0;
        }
        if (trace >= ntraces)
            fatal("tea: state outside any trace");
        Addr start = r.u32();
        uint32_t delta = r.var32();
        if (delta > 0xffffff)
            fatal("tea: implausible block length %u", delta);
        Addr end = start + delta;
        bool loop_header = (r.u8() & 1) != 0;
        uint32_t ntrans = r.var32();
        if (ntrans > nstates)
            fatal("tea: state with %u transitions", ntrans);
        StateId id = tea.addState(trace, tbb, start, end, loop_header);
        Pending p;
        p.id = id;
        p.succs.reserve(ntrans);
        for (uint32_t j = 0; j < ntrans; ++j)
            p.succs.push_back(wide_ids ? r.u32() : r.u16());
        pending.push_back(std::move(p));
        ++tbb;
    }
    r.expectEnd();

    for (const Pending &p : pending) {
        for (StateId t : p.succs) {
            if (t == Tea::kNteState || t > nstates)
                fatal("tea: bad transition target %u", t);
            tea.addTransition(p.id, t);
        }
    }
    // Entries: TBB 0 of every trace. Corrupt inputs can carry two
    // traces with the same entry address; report that as bad data
    // rather than tripping the library invariant.
    for (uint32_t t = 0; t < ntraces; ++t) {
        StateId entry = tea.stateFor(t, 0);
        if (tea.entryAt(tea.state(entry).start) != Tea::kNteState)
            fatal("tea: duplicate trace entry address");
        tea.addEntry(entry);
    }
    return tea;
}

void
saveTeaFile(const Tea &tea, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    auto bytes = saveTea(tea);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        fatal("error writing '%s'", path.c_str());
}

Tea
loadTeaFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    return loadTea(bytes);
}

} // namespace tea
