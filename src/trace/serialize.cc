#include "trace/serialize.hh"

#include <fstream>
#include <sstream>

#include "util/bytes.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace tea {

namespace {

constexpr const char *kTextMagic = "teatraces";
constexpr int kTextVersion = 1;
constexpr uint32_t kBinMagic = 0x54454154; // "TEAT"
constexpr uint32_t kBinVersion = 1;

TraceKind
kindFromName(const std::string &name)
{
    for (int k = 0; k < 4; ++k) {
        auto kind = static_cast<TraceKind>(k);
        if (name == traceKindName(kind))
            return kind;
    }
    fatal("unknown trace kind '%s'", name.c_str());
}

} // namespace

std::string
saveTracesText(const TraceSet &traces)
{
    std::ostringstream os;
    os << kTextMagic << " " << kTextVersion << " " << traces.size() << "\n";
    for (const Trace &t : traces.all()) {
        os << "trace " << traceKindName(t.kind) << "\n";
        for (const TraceBasicBlock &b : t.blocks) {
            os << "  tbb " << hex32(b.start) << " " << hex32(b.end) << " "
               << (b.loopHeader ? 1 : 0) << "\n";
        }
        for (const Trace::Edge &e : t.edges)
            os << "  edge " << e.from << " " << e.to << "\n";
        os << "endtrace\n";
    }
    return os.str();
}

TraceSet
loadTracesText(const std::string &text)
{
    std::istringstream stream(text);
    std::string line;
    int line_no = 0;
    auto next_line = [&](bool required) -> bool {
        while (std::getline(stream, line)) {
            ++line_no;
            line = trim(line);
            if (!line.empty())
                return true;
        }
        if (required)
            fatal("traces: unexpected end of input at line %d", line_no);
        return false;
    };

    if (!next_line(true))
        fatal("traces: empty input");
    auto header = splitWhitespace(line);
    if (header.size() != 3 || header[0] != kTextMagic)
        fatal("traces: bad header '%s'", line.c_str());
    int64_t version, count;
    if (!parseInt(header[1], version) || version != kTextVersion)
        fatal("traces: unsupported version '%s'", header[1].c_str());
    if (!parseInt(header[2], count) || count < 0)
        fatal("traces: bad trace count");

    TraceSet set;
    for (int64_t i = 0; i < count; ++i) {
        next_line(true);
        auto fields = splitWhitespace(line);
        if (fields.size() != 2 || fields[0] != "trace")
            fatal("traces line %d: expected 'trace <kind>'", line_no);
        Trace t;
        t.kind = kindFromName(fields[1]);
        for (;;) {
            next_line(true);
            fields = splitWhitespace(line);
            if (fields[0] == "endtrace")
                break;
            if (fields[0] == "tbb") {
                int64_t start, end, header_flag;
                if (fields.size() != 4 || !parseInt(fields[1], start) ||
                    !parseInt(fields[2], end) ||
                    !parseInt(fields[3], header_flag))
                    fatal("traces line %d: bad tbb", line_no);
                t.blocks.push_back({static_cast<Addr>(start),
                                    static_cast<Addr>(end),
                                    header_flag != 0});
            } else if (fields[0] == "edge") {
                int64_t from, to;
                if (fields.size() != 3 || !parseInt(fields[1], from) ||
                    !parseInt(fields[2], to))
                    fatal("traces line %d: bad edge", line_no);
                t.edges.push_back({static_cast<uint32_t>(from),
                                   static_cast<uint32_t>(to)});
            } else {
                fatal("traces line %d: unexpected '%s'", line_no,
                      fields[0].c_str());
            }
        }
        set.add(std::move(t));
    }
    return set;
}

std::vector<uint8_t>
saveTracesBinary(const TraceSet &traces)
{
    std::vector<uint8_t> out;
    PayloadWriter w(out);
    w.u32(kBinMagic);
    w.u32(kBinVersion);
    w.u32(static_cast<uint32_t>(traces.size()));
    for (const Trace &t : traces.all()) {
        w.u32(static_cast<uint32_t>(t.kind));
        w.u32(static_cast<uint32_t>(t.blocks.size()));
        w.u32(static_cast<uint32_t>(t.edges.size()));
        for (const TraceBasicBlock &b : t.blocks) {
            w.u32(b.start);
            w.u32(b.end);
            w.u32(b.loopHeader ? 1 : 0);
        }
        for (const Trace::Edge &e : t.edges) {
            w.u32(e.from);
            w.u32(e.to);
        }
    }
    return out;
}

TraceSet
loadTracesBinary(const std::vector<uint8_t> &bytes)
{
    PayloadReader r(bytes, "traces");
    if (r.u32() != kBinMagic)
        fatal("traces: bad binary magic");
    if (r.u32() != kBinVersion)
        fatal("traces: unsupported binary version");
    uint32_t count = r.u32();
    TraceSet set;
    for (uint32_t i = 0; i < count; ++i) {
        Trace t;
        uint32_t kind = r.u32();
        if (kind > 3)
            fatal("traces: bad kind %u", kind);
        t.kind = static_cast<TraceKind>(kind);
        uint32_t nblocks = r.u32();
        uint32_t nedges = r.u32();
        // Plausibility before reserving: each block/edge needs bytes.
        if (static_cast<uint64_t>(nblocks) * 12 > bytes.size() ||
            static_cast<uint64_t>(nedges) * 8 > bytes.size())
            fatal("traces: implausible counts (%u blocks, %u edges)",
                  nblocks, nedges);
        t.blocks.reserve(nblocks);
        for (uint32_t j = 0; j < nblocks; ++j) {
            TraceBasicBlock b;
            b.start = r.u32();
            b.end = r.u32();
            b.loopHeader = r.u32() != 0;
            t.blocks.push_back(b);
        }
        t.edges.reserve(nedges);
        for (uint32_t j = 0; j < nedges; ++j) {
            uint32_t from = r.u32();
            uint32_t to = r.u32();
            t.edges.push_back({from, to});
        }
        set.add(std::move(t));
    }
    return set;
}

void
saveTracesFile(const TraceSet &traces, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << saveTracesText(traces);
    if (!out)
        fatal("error writing '%s'", path.c_str());
}

TraceSet
loadTracesFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return loadTracesText(buf.str());
}

} // namespace tea
