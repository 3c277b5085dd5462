#include "net/frame.hh"

#include "util/crc32.hh"
#include "util/logging.hh"

namespace tea {

void
appendFrame(std::vector<uint8_t> &out, MsgType type,
            const uint8_t *payload, size_t len)
{
    if (len > Wire::kMaxPayload)
        panic("frame payload of %zu bytes exceeds the %u cap", len,
              Wire::kMaxPayload);
    size_t start = out.size();
    PayloadWriter w(out);
    w.u32(static_cast<uint32_t>(1 + len));
    w.u8(static_cast<uint8_t>(type));
    if (len > 0)
        w.raw(payload, len);
    w.u32(crc32(out.data() + start, out.size() - start));
}

void
FrameDecoder::feed(const uint8_t *data, size_t len)
{
    // Compact once the consumed prefix dominates, to keep the buffer
    // bounded by outstanding (not total) bytes.
    if (head > 4096 && head > buf.size() / 2) {
        buf.erase(buf.begin(), buf.begin() + static_cast<long>(head));
        head = 0;
    }
    buf.insert(buf.end(), data, data + len);
}

bool
FrameDecoder::poll(Frame &out)
{
    if (poisoned)
        fatal("frame decoder: stream already failed framing");
    if (buffered() < 4)
        return false;
    const uint8_t *frame = buf.data() + head;
    PayloadReader r(frame, buffered(), "frame");
    uint32_t bodyLen = r.u32();
    if (bodyLen == 0 || bodyLen > Wire::kMaxPayload + 1) {
        poisoned = true;
        fatal("frame: bad body length %u", bodyLen);
    }
    if (r.remaining() < static_cast<size_t>(bodyLen) + 4)
        return false;
    const uint8_t *body = r.raw(bodyLen);
    uint32_t want = r.u32();
    uint32_t got = crc32(frame, 4 + bodyLen);
    if (want != got) {
        poisoned = true;
        fatal("frame: CRC mismatch (stored 0x%08x, computed 0x%08x)",
              want, got);
    }
    out.type = static_cast<MsgType>(body[0]);
    out.payload.assign(body + 1, body + bodyLen);
    head += 4 + static_cast<size_t>(bodyLen) + 4;
    return true;
}

// --------------------------------------------------------- payload codecs

void
encodeStats(PayloadWriter &w, const ReplayStats &st)
{
    w.u64(st.blocks);
    w.u64(st.insnsTotal);
    w.u64(st.insnsInTrace);
    w.u64(st.transitions);
    w.u64(st.intraTraceHits);
    w.u64(st.traceExits);
    w.u64(st.exitsToCold);
    w.u64(st.nteBlocks);
    w.u64(st.localCacheHits);
    w.u64(st.globalLookups);
    w.u64(st.globalHits);
}

void
encodeStatus(PayloadWriter &w, const ServerStatus &st)
{
    w.u32(st.queueDepth);
    w.u32(st.activeSessions);
    w.u64(st.uptimeMs);
}

ServerStatus
decodeStatus(PayloadReader &r)
{
    ServerStatus st;
    st.queueDepth = r.u32();
    st.activeSessions = r.u32();
    st.uptimeMs = r.u64();
    return st;
}

ReplayStats
decodeStats(PayloadReader &r)
{
    ReplayStats st;
    st.blocks = r.u64();
    st.insnsTotal = r.u64();
    st.insnsInTrace = r.u64();
    st.transitions = r.u64();
    st.intraTraceHits = r.u64();
    st.traceExits = r.u64();
    st.exitsToCold = r.u64();
    st.nteBlocks = r.u64();
    st.localCacheHits = r.u64();
    st.globalLookups = r.u64();
    st.globalHits = r.u64();
    return st;
}

} // namespace tea
