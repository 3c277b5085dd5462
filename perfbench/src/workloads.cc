/**
 * @file
 * The three workloads. Every one is a closed loop: a client issues its
 * next request only after the previous reply, and every reply is
 * checked against an oracle before it counts.
 *
 * - local-replay: runReplayJob in process over ref-size logs of four
 *   programs chosen to vary automaton size (gcc), lookup pressure
 *   (perlbmk's indirect dispatch) and log size against cache; half the
 *   jobs send the v2 delta log and half the elided one.
 * - remote-replay: two persistent loopback connections to `teadbt
 *   serve`, profiled REPLAYs of the test-size gzip log; per-request
 *   work is small, so the wire path dominates.
 * - record-mix: `teadbt serve --store` with fewer resident slots than
 *   the 26-program fleet; one client RECORDs ref-size streams into
 *   fresh names while another REPLAYs test-size logs across the fleet.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sys/stat.h>
#include <thread>

#include "bench.hh"
#include "ledger.hh"
#include "probes.hh"
#include "server.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/serialize.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace teabench {

using namespace tea;

namespace {

/** Probe repetitions; the big ref-size inputs take fewer. */
int
repsFor(uint64_t records)
{
    return records > 1'000'000 ? 3 : records > 100'000 ? 5 : 9;
}

bool
sameReplay(const ReplayExpect &want, const ReplayStats &stats,
           const std::vector<uint64_t> &execCounts)
{
    return stats == want.stats && execCounts == want.execCounts;
}

bool
sameRecord(const RecordExpect &want, const RemoteRecordResult &got)
{
    return got.transitions == want.transitions &&
           got.traces == want.traces && got.states == want.states &&
           got.stats == want.stats;
}

/** Keep the first few failure messages of a phase. */
void
noteError(std::vector<std::string> &errors, const std::string &msg)
{
    if (errors.size() < 5)
        errors.push_back(msg);
}

std::string
makeDir(const std::string &path)
{
    ::mkdir(path.c_str(), 0755);
    return path;
}

/**
 * A seeded draw that visits every item once per cycle, in a fresh
 * shuffled order each cycle: the mix of a run is fixed, only the order
 * depends on the seed.
 */
class SeededCycle
{
  public:
    SeededCycle(std::vector<uint32_t> items, uint64_t seed)
        : items(std::move(items)), rng(seed), pos(this->items.size())
    {
    }

    uint32_t
    next()
    {
        if (pos == items.size()) {
            for (size_t i = items.size() - 1; i > 0; --i)
                std::swap(items[i], items[rng.nextBelow(i + 1)]);
            pos = 0;
        }
        return items[pos++];
    }

  private:
    std::vector<uint32_t> items;
    Xorshift64Star rng;
    size_t pos;
};

std::vector<uint32_t>
iota(uint32_t n)
{
    std::vector<uint32_t> v(n);
    for (uint32_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

/** Everything a replay input's probes need. */
struct ReplaySpec
{
    std::string name; ///< automaton name on the wire
    std::shared_ptr<const Tea> tea;
    std::shared_ptr<const CompiledTea> compiled;
    const std::vector<uint8_t> *sent = nullptr;   ///< log the op sends
    const std::vector<uint8_t> *delta = nullptr;  ///< stream, delta
    const std::vector<uint8_t> *elided = nullptr; ///< stream, elided
    const CompiledTea *elidedWith = nullptr;      ///< its automaton
    const ReplayExpect *expect = nullptr;
};

InputCost
replayCost(const ReplaySpec &s, SessionRig &rig)
{
    InputCost c;
    TraceLogInfo info = inspectTraceLog(s.sent->data(), s.sent->size());
    int reps = repsFor(info.records);
    c.records = info.records;
    c.elidedRecords = info.elidedRecords;
    c.transitions = s.expect->stats.transitions;
    c.localCacheHits = s.expect->stats.localCacheHits;
    c.traceExits = s.expect->stats.traceExits;
    c.decodeSentNs = decodeNs(*s.sent, s.compiled.get(), reps);
    c.decodeDeltaNs = decodeNs(*s.delta, nullptr, reps);
    c.decodeElidedNs = decodeNs(*s.elided, s.elidedWith, reps);
    c.jobNs = jobNs(s.tea, s.compiled, *s.sent, reps);
    std::vector<BlockTransition> records = decodeAll(*s.delta);
    c.kernelNs = kernelNs(s.tea, s.compiled, records, false, reps);
    c.kernelRefNs = kernelNs(s.tea, s.compiled, records, true, reps);

    c.encodeNs =
        medianNs(reps, [&] { encodeReplayRequest(s.name, *s.sent); });
    std::vector<uint8_t> request = rig.capture([&](TeaClient &client) {
        RemoteReplayOptions opt;
        opt.wantProfile = true;
        client.replay(s.name, *s.sent, opt);
    });
    if (request != encodeReplayRequest(s.name, *s.sent))
        std::printf("note: client REPLAY bytes differ from the probe's "
                    "frame encoding for %s\n",
                    s.name.c_str());
    c.frameDecodeNs = medianNs(reps, [&] { decodeFrames(request); });
    c.consumeNs = rig.consumeNs(request, reps);
    return c;
}

InputCost
recordCostOf(const std::string &name,
             const std::vector<BlockTransition> &stream, SessionRig &rig,
             const RecordCost &rc)
{
    InputCost c;
    int reps = repsFor(stream.size());
    c.transitions = stream.size();
    c.encodeNs =
        medianNs(reps, [&] { encodeRecordRequest(name, stream); });
    std::vector<uint8_t> request = rig.capture(
        [&](TeaClient &client) { client.record(name, stream); });
    if (request != encodeRecordRequest(name, stream))
        std::printf("note: client RECORD bytes differ from the probe's "
                    "frame encoding for %s\n",
                    name.c_str());
    c.frameDecodeNs = medianNs(reps, [&] { decodeFrames(request); });
    c.consumeNs = rig.consumeNs(request, reps);
    c.ingestNs = rc.ingestNs;
    c.finishNs = rc.finishNs;
    return c;
}

/**
 * Recording and store costs of the workload's streams and automata,
 * each stream and automaton weighted equally; each stream's own
 * recording cost is also appended to `perStream` when given.
 */
GrowthFacts
growthFacts(const std::vector<const std::vector<BlockTransition> *> &streams,
            const std::vector<std::shared_ptr<const Tea>> &automata,
            const std::string &dir,
            std::vector<RecordCost> *perStream = nullptr)
{
    GrowthFacts g;
    SessionRig rig(makeDir(dir));
    double transitions = 0, ingest = 0;
    for (const auto *s : streams) {
        RecordCost rc = recordCost(*s, rig.registry, rig.store.get(),
                                   repsFor(s->size()));
        if (perStream != nullptr)
            perStream->push_back(rc);
        transitions += static_cast<double>(s->size());
        ingest += rc.ingestNs;
        g.finishMs += rc.finishNs / 1e6;
        g.incrementalMs += rc.incrementalMs;
        g.fullMs += rc.fullMs;
    }
    double ns = static_cast<double>(streams.size());
    g.ingestNsPerTransition = transitions > 0 ? ingest / transitions : 0;
    g.finishMs /= ns;
    g.incrementalMs /= ns;
    g.fullMs /= ns;
    for (size_t i = 0; i < automata.size(); ++i) {
        StoreCost sc = storeCost(*rig.store, "probe" + std::to_string(i),
                                 automata[i], 9);
        g.faultInUs += sc.faultInNs / 1e3;
        g.writeThroughMs += sc.writeThroughNs / 1e6;
    }
    g.faultInUs /= static_cast<double>(automata.size());
    g.writeThroughMs /= static_cast<double>(automata.size());
    return g;
}

/** Wire figures of a traced remote phase. */
WireFacts
wireFacts(const PhaseResult &p)
{
    WireFacts w;
    double n = 0, bytes = 0, ms = 0;
    for (const OpSample &op : p.ops) {
        if (!op.ok)
            continue;
        n += 1;
        bytes += static_cast<double>(op.wireBytes);
        ms += op.ms;
    }
    if (n > 0) {
        w.rttMs = ms / n;
        w.bytesPerOp = bytes / n;
        w.ctxPerOp = static_cast<double>(p.ctxSwitches) / n;
    }
    std::vector<double> dispatch = statsSpans(p.serverStats, "dispatch");
    double sum = 0;
    for (double d : dispatch)
        sum += d;
    w.dispatchMs =
        dispatch.empty() ? 0 : sum / static_cast<double>(dispatch.size()) / 1e6;
    double hits = statsCounter(p.serverStats, "store.hits");
    double loads = statsCounter(p.serverStats, "store.mmap_loads");
    w.storeHitRatio = hits + loads > 0 ? hits / (hits + loads) : 0.0;
    return w;
}

/** One remote replay, checked against `want`. */
OpSample
remoteReplay(TeaClient &client, const std::string &name,
             const std::vector<uint8_t> &log, const ReplayExpect &want,
             uint32_t input, std::vector<std::string> &errors)
{
    OpSample op;
    op.input = input;
    RemoteReplayOptions opt;
    opt.wantProfile = true;
    uint64_t b0 = client.bytesSent() + client.bytesReceived();
    uint64_t t0 = nowNs();
    RemoteReplayResult res = client.replay(name, log, opt);
    op.endNs = nowNs();
    op.ms = static_cast<double>(op.endNs - t0) / 1e6;
    op.wireBytes = client.bytesSent() + client.bytesReceived() - b0;
    op.transitions = res.stats.transitions;
    op.ok = sameReplay(want, res.stats, res.execCounts);
    if (!op.ok)
        noteError(errors, "replay of " + name + " differs from local");
    return op;
}

/**
 * Run `body(client, ops, errors)` in a closed loop on one connection
 * until `deadline`; a thrown op counts as failed and the client
 * reconnects.
 */
template <typename Body>
void
clientLoop(ServerProc &server, uint64_t deadline, std::vector<OpSample> &ops,
           std::vector<std::string> &errors, Body &&body)
{
    std::unique_ptr<TeaClient> client;
    while (nowNs() < deadline) {
        if (!client) {
            try {
                client = std::make_unique<TeaClient>(server.connect());
            } catch (const FatalError &e) {
                noteError(errors, e.what());
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                continue;
            }
        }
        uint64_t t0 = nowNs();
        try {
            body(*client, ops, errors);
        } catch (const FatalError &e) {
            OpSample op;
            op.endNs = nowNs();
            op.ms = static_cast<double>(op.endNs - t0) / 1e6;
            op.ok = false;
            ops.push_back(op);
            noteError(errors, e.what());
            client.reset();
        }
    }
}

// ------------------------------------------------------- local-replay

class LocalReplay : public Workload
{
  public:
    explicit LocalReplay(const Env &env) : env(env), order(cycle(), env.seed)
    {
        for (const char *p : {"syn.gzip", "syn.gcc", "syn.mcf",
                              "syn.perlbmk"}) {
            inputs.push_back(loadInput(env.cacheDir, p, InputSize::Ref));
            expects.push_back(
                referenceReplay(*inputs.back().tea, inputs.back().deltaLog));
        }
        service.resize(inputs.size());
    }

    double
    setup() override
    {
        // The local service: every automaton deserialized and compiled,
        // ready for runReplayJob.
        uint64_t t0 = nowNs();
        for (size_t i = 0; i < inputs.size(); ++i) {
            service[i].tea =
                std::make_shared<const Tea>(loadTea(inputs[i].teaBytes));
            service[i].compiled = CompiledTea::compile(service[i].tea);
        }
        return static_cast<double>(nowNs() - t0) / 1e9;
    }

    PhaseResult
    run(double seconds, bool traced) override
    {
        PhaseResult p;
        ProcSample s0 = sampleProc(0);
        uint64_t start = nowNs();
        p.startNs = start;
        uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
        while (nowNs() < deadline) {
            uint32_t input = order.next();
            size_t prog = input / 2;
            ReplayJob job;
            job.tea = service[prog].tea;
            job.compiled = service[prog].compiled;
            job.logBytes = input % 2 == 0 ? &inputs[prog].deltaLog
                                          : &inputs[prog].elidedLog;
            OpSample op;
            op.input = input;
            uint64_t t0 = nowNs();
            StreamResult r = runReplayJob(job, LookupConfig{});
            op.endNs = nowNs();
            op.ms = static_cast<double>(op.endNs - t0) / 1e6;
            op.transitions = r.stats.transitions;
            op.ok = r.ok() && sameReplay(expects[prog], r.stats,
                                         r.execCounts);
            if (traced)
                splitLayers(job, op);
            if (!op.ok)
                noteError(p.errors, r.ok() ? "stream of " + inputs[prog].name +
                                                 " differs from the oracle"
                                           : r.error);
            p.ops.push_back(op);
        }
        p.seconds = static_cast<double>(nowNs() - start) / 1e9;
        ProcSample s1 = sampleProc(0);
        p.cpuSeconds = s1.cpuSeconds - s0.cpuSeconds;
        p.peakRssMb = s1.peakRssMb;
        return p;
    }

    LayerReport
    layers(const PhaseResult &traced) override
    {
        SessionRig rig("");
        for (const ProgramInput &in : inputs)
            rig.put(in.name, in.tea);
        std::vector<InputCost> costs;
        for (uint32_t input = 0; input < 2 * inputs.size(); ++input) {
            const ProgramInput &in = inputs[input / 2];
            ReplaySpec s{in.name,
                         in.tea,
                         in.compiled,
                         input % 2 == 0 ? &in.deltaLog : &in.elidedLog,
                         &in.deltaLog,
                         &in.elidedLog,
                         in.compiled.get(),
                         &expects[input / 2]};
            costs.push_back(replayCost(s, rig));
        }
        std::vector<std::vector<BlockTransition>> streams;
        std::vector<const std::vector<BlockTransition> *> streamPtrs;
        std::vector<std::shared_ptr<const Tea>> automata;
        for (const ProgramInput &in : inputs) {
            streams.push_back(decodeAll(in.deltaLog));
            automata.push_back(in.tea);
        }
        for (const auto &s : streams)
            streamPtrs.push_back(&s);
        GrowthFacts growth =
            growthFacts(streamPtrs, automata, env.workDir + "/probe-store");
        return assembleReport(traced, costs, wireProbe(), growth, false);
    }

  private:
    /**
     * The job again, through the bench's own decode → kernel loop (the
     * one runReplayJob runs), timing each layer right after the op so
     * both see the same host conditions.
     */
    static void
    splitLayers(const ReplayJob &job, OpSample &op)
    {
        TraceLogReader reader(job.logBytes->data(), job.logBytes->size(),
                              TraceLogReader::Mode::Strict,
                              job.compiled.get());
        TeaReplayer replayer(*job.tea, LookupConfig{}, job.compiled);
        for (;;) {
            uint64_t t0 = nowNs();
            const std::vector<BlockTransition> *chunk = reader.nextChunk();
            uint64_t t1 = nowNs();
            op.decodeNs += t1 - t0;
            if (chunk == nullptr)
                break;
            replayer.feedAll(chunk->data(), chunk->data() + chunk->size());
            op.kernelNs += nowNs() - t1;
        }
    }

    /**
     * Inputs are 2 * program + (0 delta, 1 elided). A cycle runs every
     * log once and mcf's elided log (the slowest stream) a second time:
     * with eight equal latency modes the median and the 90th percentile
     * would sit on the edge between two modes; with nine they fall
     * inside one.
     */
    static std::vector<uint32_t>
    cycle()
    {
        std::vector<uint32_t> c = iota(8);
        c.push_back(2 * 2 + 1);
        return c;
    }

    /**
     * The wire figures of this workload's streams: the local path has
     * no socket, so serve the same logs three times each from `teadbt
     * serve`.
     */
    WireFacts
    wireProbe()
    {
        ServerProc server(env.teadbt, env.workDir, {});
        TeaClient client = server.connect();
        for (const ProgramInput &in : inputs)
            client.putAutomaton(in.name, in.teaBytes);
        PhaseResult p;
        ProcSample s0 = sampleProc(server.pid());
        for (int round = 0; round < 3; ++round)
            for (uint32_t input = 0; input < 2 * inputs.size(); ++input) {
                const ProgramInput &in = inputs[input / 2];
                p.ops.push_back(remoteReplay(
                    client, in.name,
                    input % 2 == 0 ? in.deltaLog : in.elidedLog,
                    expects[input / 2], input, p.errors));
            }
        p.ctxSwitches = sampleProc(server.pid()).ctxSwitches - s0.ctxSwitches;
        p.serverStats = client.stats();
        client.close();
        server.stop();
        if (p.failed() != 0)
            fatal("teabench: wire probe replay mismatch");
        return wireFacts(p);
    }

    struct Loaded
    {
        std::shared_ptr<const Tea> tea;
        std::shared_ptr<const CompiledTea> compiled;
    };

    Env env;
    std::vector<ProgramInput> inputs;
    std::vector<ReplayExpect> expects;
    std::vector<Loaded> service;
    SeededCycle order;
};

// ------------------------------------------------------ remote-replay

class RemoteReplay : public Workload
{
  public:
    static constexpr int kClients = 2;

    explicit RemoteReplay(const Env &env)
        : env(env), in(loadInput(env.cacheDir, "syn.gzip", InputSize::Test)),
          expect(jobReplay(in, in.deltaLog))
    {
    }

    double
    setup() override
    {
        server.reset();
        uint64_t t0 = nowNs();
        server = std::make_unique<ServerProc>(env.teadbt, env.workDir,
                                              std::vector<std::string>{});
        TeaClient client = server->connect();
        client.putAutomaton(in.name, in.teaBytes);
        client.ping();
        double s = static_cast<double>(nowNs() - t0) / 1e9;
        client.close();
        return s;
    }

    PhaseResult
    run(double seconds, bool) override
    {
        PhaseResult p;
        std::vector<std::vector<OpSample>> ops(kClients);
        std::vector<std::vector<std::string>> errors(kClients);
        ProcSample s0 = sampleProc(server->pid());
        uint64_t start = nowNs();
        p.startNs = start;
        uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                clientLoop(*server, deadline, ops[c], errors[c],
                           [&](TeaClient &client, std::vector<OpSample> &out,
                               std::vector<std::string> &err) {
                               out.push_back(remoteReplay(
                                   client, in.name, in.deltaLog, expect, 0,
                                   err));
                           });
            });
        for (std::thread &t : threads)
            t.join();
        p.seconds = static_cast<double>(nowNs() - start) / 1e9;
        ProcSample s1 = sampleProc(server->pid());
        p.cpuSeconds = s1.cpuSeconds - s0.cpuSeconds;
        p.ctxSwitches = s1.ctxSwitches - s0.ctxSwitches;
        p.peakRssMb = s1.peakRssMb;
        for (int c = 0; c < kClients; ++c) {
            p.ops.insert(p.ops.end(), ops[c].begin(), ops[c].end());
            for (const std::string &e : errors[c])
                noteError(p.errors, e);
        }
        return p;
    }

    void
    readServerStats(PhaseResult &p) override
    {
        TeaClient client = server->connect();
        p.serverStats = client.stats();
    }

    LayerReport
    layers(const PhaseResult &traced) override
    {
        SessionRig rig("");
        rig.put(in.name, in.tea);
        ReplaySpec s{in.name,        in.tea,       in.compiled,
                     &in.deltaLog,   &in.deltaLog, &in.elidedLog,
                     in.compiled.get(), &expect};
        std::vector<InputCost> costs{replayCost(s, rig)};
        std::vector<BlockTransition> stream = decodeAll(in.deltaLog);
        GrowthFacts growth = growthFacts({&stream}, {in.tea},
                                         env.workDir + "/probe-store");
        return assembleReport(traced, costs, wireFacts(traced), growth,
                              true);
    }

    void shutdown() override { server.reset(); }

  private:
    Env env;
    ProgramInput in;
    ReplayExpect expect;
    std::unique_ptr<ServerProc> server;
};

// --------------------------------------------------------- record-mix

class RecordMix : public Workload
{
  public:
    /** Resident automata the server may hold; below the fleet size. */
    static constexpr int kMaxResident = 8;

    /** The ref-size streams RECORDs draw from. */
    static constexpr const char *kRecordPrograms[] = {
        "syn.gzip", "syn.bzip2", "syn.vortex"};

    explicit RecordMix(const Env &env) : env(env)
    {
        for (const std::string &p : Workloads::names()) {
            fleet.push_back(loadInput(env.cacheDir, p, InputSize::Test));
            fleetExpect.push_back(jobReplay(fleet.back(),
                                            fleet.back().deltaLog));
        }
        for (const char *p : kRecordPrograms) {
            RecordSource src;
            ProgramInput ref = loadInput(env.cacheDir, p, InputSize::Ref);
            src.stream = decodeAll(ref.deltaLog);
            src.expect = offlineRecord(src.stream);
            for (size_t i = 0; i < fleet.size(); ++i)
                if (fleet[i].program == p)
                    src.fleetIndex = i;
            // A replay against the recorded name must match a local
            // replay against the offline automaton.
            ProgramInput probe = fleet[src.fleetIndex];
            probe.tea = src.expect.tea;
            probe.compiled = CompiledTea::compile(src.expect.tea);
            src.compiled = probe.compiled;
            src.replayExpect = jobReplay(probe, probe.deltaLog);
            sources.push_back(std::move(src));
        }
        makeDir(env.workDir + "/stores");
    }

    double
    setup() override
    {
        server.reset();
        std::string store = env.workDir + "/stores/" +
                            std::to_string(setups++);
        makeDir(store);
        uint64_t t0 = nowNs();
        server = std::make_unique<ServerProc>(
            env.teadbt, env.workDir,
            std::vector<std::string>{"--store", store, "--max-resident",
                                     std::to_string(kMaxResident)});
        TeaClient client = server->connect();
        for (const ProgramInput &in : fleet)
            client.putAutomaton(in.name, in.teaBytes);
        client.ping();
        double s = static_cast<double>(nowNs() - t0) / 1e9;
        client.close();
        return s;
    }

    /**
     * Op inputs: one per fleet replay (0..25), then one per RECORD of
     * a source, then one per replay against a freshly recorded name of
     * that source.
     */
    PhaseResult
    run(double seconds, bool) override
    {
        PhaseResult p;
        std::vector<OpSample> recOps, repOps;
        std::vector<std::string> recErr, repErr;
        ProcSample s0 = sampleProc(server->pid());
        uint64_t start = nowNs();
        p.startNs = start;
        uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
        const uint32_t nFleet = static_cast<uint32_t>(fleet.size());
        std::thread recorder([&] {
            clientLoop(
                *server, deadline, recOps, recErr,
                [&](TeaClient &client, std::vector<OpSample> &out,
                    std::vector<std::string> &err) {
                    uint32_t k = recDraw.next();
                    const RecordSource &src = sources[k];
                    std::string name =
                        "rec-" + std::to_string(env.seed) + "-" +
                        std::to_string(recorded++);
                    OpSample op;
                    op.kind = OpKind::Record;
                    op.input = nFleet + k;
                    uint64_t b0 = client.bytesSent() + client.bytesReceived();
                    uint64_t t0 = nowNs();
                    RemoteRecordResult res = client.record(name, src.stream);
                    op.endNs = nowNs();
                    op.ms = static_cast<double>(op.endNs - t0) / 1e6;
                    op.wireBytes =
                        client.bytesSent() + client.bytesReceived() - b0;
                    op.transitions = res.transitions;
                    op.swaps = res.swaps;
                    op.ok = sameRecord(src.expect, res);
                    if (!op.ok)
                        noteError(err, "RECORD " + name +
                                           " differs from offline");
                    out.push_back(op);
                    const ProgramInput &test = fleet[src.fleetIndex];
                    out.push_back(remoteReplay(
                        client, name, test.deltaLog, src.replayExpect,
                        nFleet + static_cast<uint32_t>(sources.size()) + k,
                        err));
                });
        });
        std::thread replayer([&] {
            clientLoop(*server, deadline, repOps, repErr,
                       [&](TeaClient &client, std::vector<OpSample> &out,
                           std::vector<std::string> &err) {
                           uint32_t i = repDraw.next();
                           out.push_back(remoteReplay(
                               client, fleet[i].name, fleet[i].deltaLog,
                               fleetExpect[i], i, err));
                       });
        });
        recorder.join();
        replayer.join();
        p.seconds = static_cast<double>(nowNs() - start) / 1e9;
        ProcSample s1 = sampleProc(server->pid());
        p.cpuSeconds = s1.cpuSeconds - s0.cpuSeconds;
        p.ctxSwitches = s1.ctxSwitches - s0.ctxSwitches;
        p.peakRssMb = s1.peakRssMb;
        p.ops = std::move(recOps);
        p.ops.insert(p.ops.end(), repOps.begin(), repOps.end());
        for (const auto *errs : {&recErr, &repErr})
            for (const std::string &e : *errs)
                noteError(p.errors, e);
        return p;
    }

    void
    readServerStats(PhaseResult &p) override
    {
        TeaClient client = server->connect();
        p.serverStats = client.stats();
    }

    LayerReport
    layers(const PhaseResult &traced) override
    {
        SessionRig rig(makeDir(env.workDir + "/probe-rig"));
        for (const ProgramInput &in : fleet)
            rig.put(in.name, in.tea);
        std::vector<InputCost> costs;
        for (size_t i = 0; i < fleet.size(); ++i) {
            const ProgramInput &in = fleet[i];
            ReplaySpec s{in.name,      in.tea,           in.compiled,
                         &in.deltaLog, &in.deltaLog,     &in.elidedLog,
                         in.compiled.get(), &fleetExpect[i]};
            costs.push_back(replayCost(s, rig));
        }
        std::vector<const std::vector<BlockTransition> *> streams;
        std::vector<std::shared_ptr<const Tea>> automata;
        for (const RecordSource &src : sources) {
            streams.push_back(&src.stream);
            automata.push_back(src.expect.tea);
        }
        for (const ProgramInput &in : fleet)
            automata.push_back(in.tea);
        std::vector<RecordCost> recorded;
        GrowthFacts growth = growthFacts(
            streams, automata, env.workDir + "/probe-store", &recorded);
        for (size_t k = 0; k < sources.size(); ++k)
            costs.push_back(recordCostOf("probe.rec" + std::to_string(k),
                                         sources[k].stream, rig,
                                         recorded[k]));
        for (size_t k = 0; k < sources.size(); ++k) {
            const RecordSource &src = sources[k];
            const ProgramInput &test = fleet[src.fleetIndex];
            std::string name = "probe.recorded" + std::to_string(k);
            rig.put(name, src.expect.tea);
            ReplaySpec s{name,           src.expect.tea, src.compiled,
                         &test.deltaLog, &test.deltaLog, &test.elidedLog,
                         test.compiled.get(), &src.replayExpect};
            costs.push_back(replayCost(s, rig));
        }
        return assembleReport(traced, costs, wireFacts(traced), growth,
                              true);
    }

    void shutdown() override { server.reset(); }

  private:
    struct RecordSource
    {
        std::vector<BlockTransition> stream; ///< ref-size stream
        RecordExpect expect;                 ///< offline TeaRecorder
        size_t fleetIndex = 0;               ///< its test-size input
        std::shared_ptr<const CompiledTea> compiled; ///< of expect.tea
        ReplayExpect replayExpect; ///< test log vs offline automaton
    };

    Env env;
    std::vector<ProgramInput> fleet;
    std::vector<ReplayExpect> fleetExpect;
    std::vector<RecordSource> sources;
    std::unique_ptr<ServerProc> server;
    int setups = 0;
    uint64_t recorded = 0;
    SeededCycle recDraw{iota(std::size(kRecordPrograms)), env.seed * 2 + 1};
    SeededCycle repDraw{
        iota(static_cast<uint32_t>(Workloads::names().size())),
        env.seed * 2 + 2};
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Env &env)
{
    if (name == "local-replay")
        return std::make_unique<LocalReplay>(env);
    if (name == "remote-replay")
        return std::make_unique<RemoteReplay>(env);
    if (name == "record-mix")
        return std::make_unique<RecordMix>(env);
    fatal("teabench: unknown workload '%s'", name.c_str());
}

} // namespace teabench
