#include "probes.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "net/frame.hh"
#include "net/session.hh"
#include "rec/recording.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/recorder.hh"
#include "trace/factory.hh"
#include "util/logging.hh"

namespace teabench {

using namespace tea;

namespace {

/** Records per RECORD_CHUNK, as TeaClient::record() splits them. */
constexpr size_t kRecordBatch = TraceLogFormat::kChunkRecords;

/** The HELLO frame every TeaClient connection opens with. */
std::vector<uint8_t>
helloBytes()
{
    PayloadWriter w;
    w.u32(Wire::kMagic);
    w.u32(Wire::kVersion);
    std::vector<uint8_t> out;
    appendFrame(out, MsgType::Hello, w.out());
    return out;
}

} // namespace

std::vector<uint8_t>
encodeReplayRequest(const std::string &name,
                    const std::vector<uint8_t> &log)
{
    std::vector<uint8_t> out;
    PayloadWriter begin;
    begin.str(name);
    begin.u8(ReplayFlags::kProfile);
    appendFrame(out, MsgType::ReplayBegin, begin.out());
    for (size_t off = 0; off < log.size(); off += Wire::kReplayChunk) {
        size_t n = std::min(Wire::kReplayChunk, log.size() - off);
        PayloadWriter chunk;
        chunk.raw(log.data() + off, n);
        appendFrame(out, MsgType::ReplayChunk, chunk.out());
    }
    appendFrame(out, MsgType::ReplayEnd, PayloadWriter{}.out());
    return out;
}

std::vector<uint8_t>
encodeRecordRequest(const std::string &name,
                    const std::vector<BlockTransition> &stream)
{
    std::vector<uint8_t> out;
    PayloadWriter begin;
    begin.str(name);
    begin.u8(RecordFlags::kChunksV2);
    begin.u32(0);
    begin.str("");
    appendFrame(out, MsgType::RecordBegin, begin.out());
    std::vector<uint8_t> bytes;
    for (size_t off = 0; off < stream.size(); off += kRecordBatch) {
        size_t n = std::min(kRecordBatch, stream.size() - off);
        bytes.clear();
        encodeWireChunk(bytes, stream.data() + off, n);
        PayloadWriter chunk;
        chunk.raw(bytes.data(), bytes.size());
        appendFrame(out, MsgType::RecordChunk, chunk.out());
    }
    appendFrame(out, MsgType::RecordEnd, PayloadWriter{}.out());
    return out;
}

size_t
decodeFrames(const std::vector<uint8_t> &bytes)
{
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    size_t n = 0;
    while (decoder.poll(frame))
        ++n;
    return n;
}

SessionRig::SessionRig(const std::string &storeDir)
{
    if (!storeDir.empty()) {
        StoreConfig cfg;
        cfg.dir = storeDir;
        store = std::make_unique<AutomatonStore>(registry, cfg);
    }
    recorder =
        std::make_unique<rec::RecordingService>(registry, store.get());
}

void
SessionRig::put(const std::string &name, std::shared_ptr<const Tea> t)
{
    if (store)
        store->put(name, std::move(t));
    else
        registry.put(name, *t);
}

namespace {

void
attach(Session &s, SessionRig &rig)
{
    if (rig.store)
        s.setStore(rig.store.get());
    s.setRecorder(rig.recorder.get());
}

/** Throw when a reply stream carries an ERROR frame. */
void
checkReplies(const std::vector<uint8_t> &out)
{
    FrameDecoder d;
    d.feed(out.data(), out.size());
    Frame f;
    while (d.poll(f))
        if (f.type == MsgType::Error)
            fatal("teabench: session answered ERROR: %s",
                  std::string(f.payload.begin() + 1, f.payload.end())
                      .c_str());
}

} // namespace

std::vector<uint8_t>
SessionRig::capture(const std::function<void(TeaClient &)> &conversation)
{
    int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (lfd < 0 ||
        ::bind(lfd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(lfd, 1) != 0 ||
        ::getsockname(lfd, reinterpret_cast<sockaddr *>(&addr), &len) !=
            0) {
        if (lfd >= 0)
            ::close(lfd);
        fatal("teabench: capture listener: %s", std::strerror(errno));
    }

    std::vector<uint8_t> captured;
    std::string serverError;
    std::thread server([&] {
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            serverError = std::strerror(errno);
            return;
        }
        Session session(registry);
        attach(session, *this);
        std::vector<uint8_t> buf(64 * 1024), out;
        for (;;) {
            ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
            if (n <= 0)
                break;
            captured.insert(captured.end(), buf.data(), buf.data() + n);
            out.clear();
            bool open = session.consume(buf.data(), static_cast<size_t>(n),
                                        out);
            for (size_t off = 0; off < out.size();) {
                ssize_t w = ::send(fd, out.data() + off, out.size() - off,
                                   MSG_NOSIGNAL);
                if (w <= 0)
                    break;
                off += static_cast<size_t>(w);
            }
            if (!open)
                break;
        }
        ::close(fd);
    });

    std::string clientError;
    try {
        TeaClient client = TeaClient::connect(
            "tcp:127.0.0.1:" + std::to_string(ntohs(addr.sin_port)));
        conversation(client);
        client.close();
    } catch (const FatalError &e) {
        clientError = e.what();
    }
    // An accept() still waiting (the client never connected) returns
    // once the listener is shut down.
    ::shutdown(lfd, SHUT_RDWR);
    server.join();
    ::close(lfd);
    if (!clientError.empty() || !serverError.empty())
        fatal("teabench: capture failed: %s%s", clientError.c_str(),
              serverError.c_str());

    std::vector<uint8_t> hello = helloBytes();
    if (captured.size() < hello.size() ||
        !std::equal(hello.begin(), hello.end(), captured.begin()))
        fatal("teabench: captured stream does not open with HELLO");
    return std::vector<uint8_t>(captured.begin() + hello.size(),
                                captured.end());
}

double
SessionRig::consumeNs(const std::vector<uint8_t> &request, int reps)
{
    std::vector<uint8_t> hello = helloBytes();
    std::vector<double> t;
    for (int i = 0; i <= reps; ++i) {
        Session session(registry);
        attach(session, *this);
        std::vector<uint8_t> out;
        session.consume(hello.data(), hello.size(), out);
        out.clear();
        uint64_t t0 = nowNs();
        bool open = session.consume(request.data(), request.size(), out);
        uint64_t t1 = nowNs();
        if (!open)
            fatal("teabench: session closed on a captured request");
        checkReplies(out);
        if (i > 0) // the first call warms caches and is not counted
            t.push_back(static_cast<double>(t1 - t0));
    }
    return median(std::move(t));
}

double
decodeNs(const std::vector<uint8_t> &log, const CompiledTea *automaton,
         int reps)
{
    return medianNs(reps, [&] {
        TraceLogReader reader(log.data(), log.size(),
                              TraceLogReader::Mode::Strict, automaton);
        while (reader.nextChunk() != nullptr) {
        }
    });
}

double
jobNs(const std::shared_ptr<const Tea> &tea,
      const std::shared_ptr<const CompiledTea> &compiled,
      const std::vector<uint8_t> &log, int reps)
{
    ReplayJob job;
    job.tea = tea;
    job.compiled = compiled;
    job.logBytes = &log;
    return medianNs(reps, [&] {
        StreamResult r = runReplayJob(job, LookupConfig{});
        if (!r.ok())
            fatal("teabench: runReplayJob failed: %s", r.error.c_str());
    });
}

double
kernelNs(const std::shared_ptr<const Tea> &tea,
         const std::shared_ptr<const CompiledTea> &compiled,
         const std::vector<BlockTransition> &records, bool reference,
         int reps)
{
    LookupConfig cfg;
    cfg.useCompiled = !reference;
    return medianNs(reps, [&] {
        TeaReplayer replayer(*tea, cfg, reference ? nullptr : compiled);
        replayer.feedAll(records.data(), records.data() + records.size());
    });
}

RecordCost
recordCost(const std::vector<BlockTransition> &stream,
           AutomatonRegistry &registry, AutomatonStore *store, int reps)
{
    RecordCost cost;
    std::vector<double> ingest, finish;
    for (int i = 0; i <= reps; ++i) {
        rec::RecordingSession session("probe.rec", registry, store,
                                      rec::RecordingConfig{});
        uint64_t t0 = nowNs();
        for (size_t off = 0; off < stream.size(); off += kRecordBatch)
            session.feedBatch(stream.data() + off,
                              std::min(kRecordBatch, stream.size() - off));
        uint64_t t1 = nowNs();
        session.finish();
        uint64_t t2 = nowNs();
        if (i > 0) {
            ingest.push_back(static_cast<double>(t1 - t0));
            finish.push_back(static_cast<double>(t2 - t1));
        }
    }
    cost.ingestNs = median(ingest);
    cost.finishNs = median(finish);

    // The growth steps a recording publishes: the automaton after each
    // 4096-transition interval in which a trace was installed.
    TeaRecorder recorder(makeSelector("mret"));
    std::shared_ptr<const CompiledTea> prev;
    uint64_t tracesAt = 0, installsAt = 0;
    double incTotal = 0, fullTotal = 0;
    for (size_t off = 0; off < stream.size(); off += kRecordBatch) {
        size_t end = std::min(off + kRecordBatch, stream.size());
        for (size_t i = off; i < end; ++i)
            recorder.feed(stream[i]);
        if (recorder.installs() == installsAt)
            continue;
        bool appendOnly = recorder.traces().size() - tracesAt ==
                          recorder.installs() - installsAt;
        auto snap = std::make_shared<const Tea>(recorder.tea());
        std::shared_ptr<const CompiledTea> next;
        incTotal += medianNs(reps, [&] {
            next = CompiledTea::recompile(snap, prev, appendOnly);
        });
        fullTotal += medianNs(reps, [&] { CompiledTea::compile(snap); });
        prev = next;
        tracesAt = recorder.traces().size();
        installsAt = recorder.installs();
        ++cost.recompiles;
    }
    if (cost.recompiles > 0) {
        cost.incrementalMs =
            incTotal / 1e6 / static_cast<double>(cost.recompiles);
        cost.fullMs = fullTotal / 1e6 / static_cast<double>(cost.recompiles);
    }
    return cost;
}

StoreCost
storeCost(AutomatonStore &store, const std::string &name,
          const std::shared_ptr<const Tea> &tea, int reps)
{
    StoreCost cost;
    AutomatonSnapshot snap = store.put(name, tea);
    cost.writeThroughNs = medianNs(
        reps, [&] { store.writeThrough(name, *snap.compiled); });
    std::vector<double> faults;
    for (int i = 0; i <= reps; ++i) {
        store.evictResident(name);
        uint64_t t0 = nowNs();
        store.get(name);
        uint64_t t1 = nowNs();
        if (i > 0)
            faults.push_back(static_cast<double>(t1 - t0));
    }
    cost.faultInNs = median(std::move(faults));
    return cost;
}

} // namespace teabench
