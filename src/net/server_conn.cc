/**
 * @file
 * The server's connection lifecycle: admission and the BUSY frame,
 * eviction, the Reply/Request spans, the request clock with
 * server.request_ms and the slow-request log, and the sessions-served
 * count. The event loop (event_loop.cc) calls these TeaServer methods
 * and keeps only its own I/O mechanics.
 */

#include <algorithm>

#include "net/frame.hh"
#include "net/server.hh"
#include "util/logging.hh"

namespace tea {

bool
TeaServer::admit(std::vector<uint8_t> &busy)
{
    size_t depth = pool.pending();
    if (depth < cfg.maxQueue &&
        (cfg.maxSessions == 0 || activeSessions() < cfg.maxSessions))
        return true;
    // Backpressure: one BUSY frame, then close. Never queue beyond the
    // bound, never buffer the client's bytes. `depth` counts consume
    // tasks waiting for a worker, not connections. The payload tells the
    // client why (depth, cap) so its backoff can be smarter than a
    // blind sleep.
    mBusy->inc();
    PayloadWriter w;
    w.u32(static_cast<uint32_t>(std::min<size_t>(depth, UINT32_MAX)));
    w.u32(static_cast<uint32_t>(
        std::min<size_t>(cfg.maxSessions, UINT32_MAX)));
    busy.clear();
    appendFrame(busy, MsgType::Busy, w.out());
    return false;
}

void
TeaServer::openConn(ServerConn &conn)
{
    conn.session = std::make_unique<Session>(registry_, cfg.lookup);
    Session &session = *conn.session;
    session.setStore(store_.get());
    session.setRecorder(recSvc_.get(), cfg.recordSwapInterval);
    session.setStatusFn([this] {
        ServerStatus st;
        st.queueDepth = static_cast<uint32_t>(
            std::min<size_t>(pool.pending(), UINT32_MAX));
        st.activeSessions = static_cast<uint32_t>(
            std::min<size_t>(activeSessions(), UINT32_MAX));
        st.uptimeMs = uptimeMs();
        return st;
    });
    session.setStatsFn(
        [this](uint8_t format) { return statsPayload(format); });
    SessionObs ob = svcObs_;
    ob.conn = conn.id;
    session.setObs(ob);
}

void
TeaServer::noteBytes(ServerConn &conn, uint64_t nowMs)
{
    if (conn.midRequest)
        return;
    // These bytes open a new request: its deadline and latency clocks
    // start here.
    conn.requestStartMs = nowMs;
    conn.requestStartNs = obs::monotonicNanos();
}

void
TeaServer::noteReply(const ServerConn &conn, uint64_t startNs)
{
    obs::Span rep;
    rep.conn = conn.id;
    rep.request = conn.session->requestsBegun();
    rep.phase = obs::SpanPhase::Reply;
    rep.startNs = startNs;
    rep.durNs = obs::monotonicNanos() - startNs;
    spans_.push(rep);
}

void
TeaServer::noteConsumed(ServerConn &conn)
{
    Session &session = *conn.session;
    conn.midRequest = session.midRequest();
    uint64_t completed = session.requestsCompleted();
    if (completed == conn.lastCompleted)
        return;
    // One or more requests finished with these bytes: observe the
    // end-to-end latency, stamp the Request span, and feed the
    // slow-request log.
    conn.lastCompleted = completed;
    uint64_t durNs = obs::monotonicNanos() - conn.requestStartNs;
    double durMs = static_cast<double>(durNs) / 1e6;
    hRequestMs->observe(durMs);
    obs::Span req;
    req.conn = conn.id;
    req.request = session.requestsBegun();
    req.phase = obs::SpanPhase::Request;
    req.startNs = conn.requestStartNs;
    req.durNs = durNs;
    spans_.push(req);
    std::vector<obs::Span> phases = session.takeRequestSpans();
    if (cfg.slowRequestMs == 0 ||
        durMs < static_cast<double>(cfg.slowRequestMs))
        return;
    mSlow->inc();
    std::string breakdown;
    for (const obs::Span &s : phases)
        breakdown += strprintf(" %s=%.2fms", obs::spanPhaseName(s.phase),
                               static_cast<double>(s.durNs) / 1e6);
    warnLimited("tead: slow request on conn %llu: %.1f ms "
                "(threshold %u ms)%s",
                static_cast<unsigned long long>(conn.id), durMs,
                cfg.slowRequestMs, breakdown.c_str());
}

std::vector<uint8_t>
TeaServer::evict(const char *why, bool deadline)
{
    (deadline ? mEvictDeadline : mEvictIdle)->inc();
    PayloadWriter w;
    w.u8(1); // fatal: the connection closes after this frame
    w.str(strprintf("connection evicted: %s", why));
    std::vector<uint8_t> frame;
    appendFrame(frame, MsgType::Error, w.out());
    // Eviction warnings share the process-wide limiter with the pool's
    // failure warnings and the slow-request log, so the *total* warn
    // rate is bounded; drops surface as the log.suppressed metric.
    warnLimited("tead: evicted connection (%s)", why);
    return frame;
}

} // namespace tea
