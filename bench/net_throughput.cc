/**
 * @file
 * Networked replay throughput: loopback streams/sec at 1, 2, 4, ...
 * concurrent clients against a TeaServer.
 *
 * Records one `syn.gzip` trace log, uploads the automaton once, then
 * replays a fixed batch of streams through N client threads against a
 * server whose pool has the default size (one worker per hardware
 * thread). At every scale the client-side results are checked
 * bit-identical to a local ReplayService::runBatch over the same jobs:
 * per-stream stats, per-stream profiles, and the merged per-TBB
 * profile — the wire adds framing, never drift.
 *
 * The `held` column is the event loop's headline: that many extra
 * connections are opened and parked idle on the server for the whole
 * batch. An idle connection costs a few hundred bytes and no thread,
 * so the batch runs at full speed with 512+ spectators.
 *
 * Note the speedup column measures the *host*: on a single-core
 * container every client count necessarily lands near 1.0x, and the
 * delta between net and local streams/sec is the protocol cost.
 *
 * The wire KB/req column counts both directions of every client's
 * socket, divided by the number of replay requests. A final section
 * replays the identical stream from a v1-encoded and a v2-encoded log
 * and reports the wire bytes each request costs; `--min-wire-compression
 * X` turns the v1/v2 ratio into a CI gate, failing the run when the v2
 * upload stops being at least X times smaller on the wire.
 *
 * The scrape rows re-run the 8-client configuration with a
 * concurrent HTTP scraper hammering GET /metrics on the same listener
 * at 1 Hz — the Prometheus-shaped workload the exposition endpoint
 * invites. The scraper starts with the batch, so every scraped batch
 * carries at least one scrape. `--min-scrape-ratio X` gates scraped
 * replay throughput at X times unscraped (CI pins it at 0.95), so a
 * scrape can never quietly tax the replay path. A test batch lasts a
 * few milliseconds, where thread start-up and scheduling swamp a 5%
 * cost, so every gate batch replays the stream set over again on the
 * same connections until it lasts ~100 ms, and the gate takes the
 * median ratio of 21 interleaved unscraped/scraped pairs of those.
 * The table's scraped row is one such stretched batch.
 *
 * The held-open pile is fully accepted (the server's activeSessions()
 * equals the pile) before the clock starts, so the row times the batch
 * alongside parked connections, not the accept backlog draining.
 *
 * The latency rows time 200 single-client, back-to-back REPLAY and
 * RECORD requests and report their p50/p99. A request
 * that waits for Linux's delayed-ACK timer reads 40 ms or more there.
 *
 * `--max-remote-ratio X` gates the wire's overhead: a 1-client remote
 * batch of the streams, over the same batch run locally through
 * runReplayJob, measured as the median of 25 interleaved local/remote
 * pairs, must stay at most X. A request stalled on a
 * kernel timer drives the ratio to ~100x. Every remote reply in these
 * rows is checked against the local batch too.
 *
 * Every gate is evaluated and reported PASS or FAIL; the exit status
 * is non-zero if any of them failed.
 *
 * Usage: net_throughput [--size test|train|ref] [--streams N]
 *                       [--held-open N] [--min-wire-compression X]
 *                       [--min-scrape-ratio X]
 *                       [--max-remote-ratio X]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench/harness.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "vm/machine.hh"

using namespace tea;
using namespace tea::bench;

namespace {

/**
 * Unscraped/scraped batch pairs behind the scrape gate's median, and
 * the wall time each batch of a pair is stretched to: long enough to
 * resolve a 5% cost, short enough that 21 pairs cost ~5 s.
 */
constexpr size_t kScrapePairs = 21;
constexpr double kScrapeBatchMs = 100.0;

/**
 * Local/remote batch pairs behind the remote-ratio gate's median. A
 * test batch takes milliseconds, so a host hiccup can triple one
 * pair; 25 pairs cost well under a second.
 */
constexpr size_t kRemotePairs = 25;

/** Requests behind each latency row: p99 has two samples beyond it. */
constexpr size_t kLatencyRequests = 200;

/** A workload's block-transition stream, for remote RECORDs. */
std::vector<BlockTransition>
transitionStream(const Program &prog)
{
    std::vector<BlockTransition> trs;
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { trs.push_back(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    return trs;
}

/** Encode a transition stream as an in-memory log. */
std::vector<uint8_t>
encodeLog(const std::vector<BlockTransition> &trs,
          uint32_t version = TraceLogFormat::kVersion)
{
    std::vector<uint8_t> bytes;
    TraceLogOptions opts;
    opts.version = version;
    TraceLogWriter writer(&bytes, opts);
    for (const BlockTransition &tr : trs)
        writer.append(tr);
    writer.finish();
    return bytes;
}

/** Wait until the server reports exactly `n` live sessions (30 s cap). */
bool
waitForSessions(const TeaServer &server, size_t n)
{
    for (int ms = 0; ms < 30000; ++ms) {
        if (server.activeSessions() == n)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

/** One blocking GET against the wire listener; returns the response. */
std::string
httpGet(const std::string &endpoint, const std::string &target)
{
    Socket s = Socket::connectTo(Endpoint::parse(endpoint));
    std::string req = "GET " + target + " HTTP/1.1\r\n"
                      "Host: tead\r\nConnection: close\r\n\r\n";
    s.sendAll(req.data(), req.size());
    std::string resp;
    char buf[4096];
    for (;;) {
        size_t n = s.recvSome(buf, sizeof(buf));
        if (n == 0)
            break;
        resp.append(buf, n);
    }
    return resp;
}

} // namespace

int
main(int argc, char **argv)
{
    InputSize size = sizeFromArgs(argc, argv);
    size_t streams = 32;
    size_t held_open = 512;
    double min_wire_compression = 0.0;
    double min_scrape_ratio = 0.0;
    double max_remote_ratio = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--streams") && i + 1 < argc)
            streams = static_cast<size_t>(std::atoi(argv[i + 1]));
        if (!std::strcmp(argv[i], "--held-open") && i + 1 < argc)
            held_open = static_cast<size_t>(std::atoi(argv[i + 1]));
        if (!std::strcmp(argv[i], "--min-wire-compression") &&
            i + 1 < argc)
            min_wire_compression = std::atof(argv[i + 1]);
        if (!std::strcmp(argv[i], "--min-scrape-ratio") && i + 1 < argc)
            min_scrape_ratio = std::atof(argv[i + 1]);
        if (!std::strcmp(argv[i], "--max-remote-ratio") && i + 1 < argc)
            max_remote_ratio = std::atof(argv[i + 1]);
    }
    if (streams == 0)
        streams = 1;

    // One workload so the merged per-TBB profile is populated (the
    // batch merge is only defined when every stream shares a TEA).
    Workload w = Workloads::build("syn.gzip", size);
    auto tea = std::make_shared<const Tea>(
        buildTea(recordWithDbt(w, "mret")));
    std::vector<BlockTransition> stream = transitionStream(w.program);
    std::vector<uint8_t> log = encodeLog(stream);

    // Local reference: the same batch through ReplayService.
    std::vector<ReplayJob> jobs(streams, ReplayJob{tea, "", &log});
    ReplayService local(1);
    BatchResult reference = local.runBatch(jobs);
    if (reference.failures != 0) {
        std::fprintf(stderr, "local reference batch failed\n");
        return 1;
    }
    Stopwatch localTimer;
    local.runBatch(jobs);
    double localMs = localTimer.elapsedMillis();

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::printf("net_throughput: %zu streams of %.1f MiB over loopback "
                "TCP, host has %u hardware threads "
                "(local 1-worker batch: %.1f ms)\n",
                streams, static_cast<double>(log.size()) / (1 << 20),
                hw, localMs);

    TextTable table({"scrape", "clients", "held", "batch ms", "streams/s",
                     "speedup", "wire KB/req"});
    double base_sps = 0.0; // the speedup column's 1-client baseline

    // One measured configuration: `clients` threads splitting the
    // batch round-robin against a fresh server, `rounds` times over
    // on the same connections, with `heldOpen` extra idle connections
    // parked on it and (when `scrape` is set) a concurrent 1 Hz HTTP
    // /metrics scraper on the same listener for the duration. Returns
    // streams/sec, or a negative value after printing the failure;
    // adds a table row when `row` is set.
    auto runScale = [&](unsigned clients, size_t heldOpen, bool scrape,
                        bool row, size_t rounds = 1) -> double {
        ServerConfig cfg;
        cfg.endpoint = "tcp:127.0.0.1:0";
        TeaServer server(cfg);
        server.start();
        std::string ep = server.endpoint();
        {
            TeaClient admin = TeaClient::connect(ep);
            admin.putAutomaton("gzip", *tea);
        }

        // The idle pile goes up before the clock starts; pacing keeps
        // the connect burst inside the listener backlog...
        std::vector<Socket> held;
        held.reserve(heldOpen);
        for (size_t i = 0; i < heldOpen; ++i) {
            held.push_back(Socket::connectTo(Endpoint::parse(ep)));
            if ((i & 0xff) == 0xff)
                while (server.activeSessions() + 256 < held.size())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
        }
        // ...and is fully accepted before it starts, or the row would
        // time the backlog draining instead of the batch beside it.
        if (heldOpen > 0 && !waitForSessions(server, heldOpen)) {
            std::fprintf(stderr,
                         "server accepted only %zu of %zu held "
                         "connections\n",
                         server.activeSessions(), heldOpen);
            return -1.0;
        }

        // The scraper starts before the clock and runs for the whole
        // batch: one GET /metrics immediately and then once per
        // second, so even a sub-second batch is scraped at least once.
        std::atomic<bool> scrapeStop{false};
        std::atomic<uint64_t> scrapes{0};
        std::atomic<int> scrapeFailed{0};
        std::thread scraper;
        if (scrape)
            scraper = std::thread([&] {
                try {
                    do {
                        std::string resp = httpGet(ep, "/metrics");
                        if (resp.find("HTTP/1.1 200") ==
                                std::string::npos ||
                            resp.find("# EOF") == std::string::npos) {
                            scrapeFailed.store(1);
                            return;
                        }
                        scrapes.fetch_add(1);
                        for (int tick = 0;
                             tick < 100 && !scrapeStop.load(); ++tick)
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(10));
                    } while (!scrapeStop.load());
                } catch (const FatalError &e) {
                    std::fprintf(stderr, "scraper: %s\n", e.what());
                    scrapeFailed.store(1);
                }
            });

        // Streams round-robined over the clients; every client keeps
        // its connection for its whole share of the batch.
        std::vector<StreamResult> results(streams);
        std::vector<int> failed(clients, 0);
        std::vector<uint64_t> wire(clients, 0);
        Stopwatch timer;
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                try {
                    TeaClient client = TeaClient::connect(ep);
                    RemoteReplayOptions opt;
                    opt.wantProfile = true;
                    for (size_t round = 0; round < rounds; ++round) {
                        for (size_t s = c; s < streams; s += clients) {
                            RemoteReplayResult r =
                                client.replay("gzip", log, opt);
                            results[s].stats = r.stats;
                            results[s].execCounts =
                                std::move(r.execCounts);
                        }
                    }
                    wire[c] =
                        client.bytesSent() + client.bytesReceived();
                } catch (const FatalError &e) {
                    std::fprintf(stderr, "client %u: %s\n", c, e.what());
                    failed[c] = 1;
                }
            });
        }
        for (auto &t : threads)
            t.join();
        double ms = timer.elapsedMillis();
        if (scraper.joinable()) {
            scrapeStop.store(true);
            scraper.join();
            if (scrapeFailed.load() != 0 || scrapes.load() == 0) {
                std::fprintf(stderr,
                             "scraper failed or never completed a "
                             "scrape (%llu ok)\n",
                             static_cast<unsigned long long>(
                                 scrapes.load()));
                return -1.0;
            }
        }
        for (unsigned c = 0; c < clients; ++c)
            if (failed[c])
                return -1.0;
        held.clear();
        server.stop();

        // Bit-identical to the local batch: per-stream and merged.
        std::vector<uint64_t> merged(tea->numStates(), 0);
        for (size_t s = 0; s < streams; ++s) {
            if (!(results[s].stats == reference.streams[s].stats) ||
                results[s].execCounts !=
                    reference.streams[s].execCounts) {
                std::fprintf(stderr,
                             "stream %zu diverges from the local batch "
                             "(%u clients)\n",
                             s, clients);
                return -1.0;
            }
            for (size_t i = 0; i < results[s].execCounts.size(); ++i)
                merged[i] += results[s].execCounts[i];
        }
        if (merged != reference.mergedExecCounts) {
            std::fprintf(stderr, "merged profile diverges (%u clients)\n",
                         clients);
            return -1.0;
        }

        double done = static_cast<double>(streams * rounds);
        double sps = ms > 0 ? 1e3 * done / ms : 0;
        if (clients == 1 && heldOpen == 0 && !scrape)
            base_sps = sps;
        if (!row)
            return sps;
        uint64_t wire_total = 0;
        for (uint64_t b : wire)
            wire_total += b;
        table.addRow({scrape ? "1 Hz" : "-", std::to_string(clients),
                      std::to_string(heldOpen), TextTable::num(ms, 1),
                      TextTable::num(sps, 1),
                      TextTable::num(base_sps > 0 ? sps / base_sps : 0.0,
                                     2),
                      TextTable::num(static_cast<double>(wire_total) /
                                         done / 1024.0,
                                     1)});
        return sps;
    };

    // The scaling sweep runs to at least 8 clients, the scale of the
    // held-open and scraped rows below.
    for (unsigned clients = 1; clients <= std::max(8u, hw); clients *= 2)
        if (runScale(clients, 0, false, true) < 0)
            return 1;

    // The held-open pile: 8 clients beside the parked connections.
    if (held_open > 0 && runScale(8, held_open, false, true) < 0)
        return 1;

    // The scraped rows: the same 8-client batch without and with the
    // 1 Hz /metrics scraper sharing the listener, interleaved, each
    // stretched to ~kScrapeBatchMs by a round count calibrated on one
    // unscraped 16-round batch. The first scraped batch is the table's
    // row.
    double calib = runScale(8, 0, false, false, 16);
    if (calib < 0)
        return 1;
    size_t rounds = static_cast<size_t>(std::max(
        1.0, kScrapeBatchMs * calib / 1e3 / static_cast<double>(streams)));
    std::vector<double> scrape_ratios;
    for (size_t rep = 0; rep < kScrapePairs; ++rep) {
        double plain = runScale(8, 0, false, false, rounds);
        double scraped = runScale(8, 0, true, rep == 0, rounds);
        if (plain < 0 || scraped < 0)
            return 1;
        scrape_ratios.push_back(plain > 0 ? scraped / plain : 0.0);
    }

    std::fputs(table.render().c_str(), stdout);
    std::printf("(remote results bit-identical to the local batch in "
                "every configuration; held = idle connections parked "
                "on the server for the whole batch)\n");

    // Every gate below is evaluated and reported; any FAIL sets the
    // exit status, none cuts the others off.
    int status = 0;
    double scrape_ratio = percentile(scrape_ratios, 50);
    std::printf("scraped vs unscraped at 8 clients: %.2fx median of %zu "
                "interleaved pairs of %zu-round batches under a 1 Hz "
                "/metrics scraper (pairs %.2f-%.2fx)\n",
                scrape_ratio, kScrapePairs, rounds,
                *std::min_element(scrape_ratios.begin(),
                                  scrape_ratios.end()),
                *std::max_element(scrape_ratios.begin(),
                                  scrape_ratios.end()));
    if (min_scrape_ratio > 0 && scrape_ratio < min_scrape_ratio) {
        std::printf("FAIL: scraped throughput only %.2fx of unscraped, "
                    "gate requires %.2fx\n",
                    scrape_ratio, min_scrape_ratio);
        status = 1;
    } else if (min_scrape_ratio > 0) {
        std::printf("PASS: scrape ratio %.2fx >= %.2fx\n", scrape_ratio,
                    min_scrape_ratio);
    }

    // Single-client work over one persistent connection: the
    // remote-over-local batch ratio, then the latency rows
    // (back-to-back REPLAYs, then RECORDs into fresh names; last, so
    // the recorded automata are not on the server for the rest). The
    // ratio takes local/remote pairs so both sides see the same host
    // state, and their median so one slow pair does not decide the
    // gate. The local side shares one compiled snapshot, as the
    // server's registry does.
    std::vector<ReplayJob> localJobs = jobs;
    auto compiled = CompiledTea::compile(tea);
    for (ReplayJob &j : localJobs)
        j.compiled = compiled;
    std::vector<double> replayMs, recordMs, localRunMs, remoteMs, ratios;
    {
        ServerConfig cfg;
        cfg.endpoint = "tcp:127.0.0.1:0";
        cfg.workers = 1;
        TeaServer server(cfg);
        server.start();
        try {
            TeaClient client = TeaClient::connect(server.endpoint());
            client.putAutomaton("gzip", *tea);
            RemoteReplayOptions opt;
            opt.wantProfile = true;
            for (size_t rep = 0; rep < kRemotePairs; ++rep) {
                Stopwatch lt;
                for (size_t s = 0; s < streams; ++s)
                    if (!runReplayJob(localJobs[s], LookupConfig{}).ok()) {
                        std::fprintf(stderr, "local replay failed\n");
                        return 1;
                    }
                localRunMs.push_back(lt.elapsedMillis());
                std::vector<RemoteReplayResult> replies(streams);
                Stopwatch rt;
                for (size_t s = 0; s < streams; ++s)
                    replies[s] = client.replay("gzip", log, opt);
                remoteMs.push_back(rt.elapsedMillis());
                for (size_t s = 0; s < streams; ++s)
                    if (!(replies[s].stats == reference.streams[s].stats) ||
                        replies[s].execCounts !=
                            reference.streams[s].execCounts) {
                        std::fprintf(stderr,
                                     "remote-ratio stream %zu diverges "
                                     "from the local batch\n",
                                     s);
                        return 1;
                    }
                ratios.push_back(remoteMs.back() / localRunMs.back());
            }
            for (size_t i = 0; i < kLatencyRequests; ++i) {
                Stopwatch t;
                RemoteReplayResult r = client.replay("gzip", log, opt);
                replayMs.push_back(t.elapsedMillis());
                if (!(r.stats == reference.streams[0].stats) ||
                    r.execCounts != reference.streams[0].execCounts) {
                    std::fprintf(stderr, "latency replay diverges\n");
                    return 1;
                }
            }
            for (size_t i = 0; i < kLatencyRequests; ++i) {
                Stopwatch t;
                RemoteRecordResult r =
                    client.record("rec" + std::to_string(i), stream);
                recordMs.push_back(t.elapsedMillis());
                if (r.transitions != stream.size()) {
                    std::fprintf(stderr, "latency record lost "
                                         "transitions\n");
                    return 1;
                }
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "single-client runs: %s\n", e.what());
            return 1;
        }
        server.stop();
    }
    TextTable latency({"verb", "requests", "p50 ms", "p99 ms"});
    latency.addRow({"REPLAY", std::to_string(replayMs.size()),
                    TextTable::num(percentile(replayMs, 50), 3),
                    TextTable::num(percentile(replayMs, 99), 3)});
    latency.addRow({"RECORD", std::to_string(recordMs.size()),
                    TextTable::num(percentile(recordMs, 50), 3),
                    TextTable::num(percentile(recordMs, 99), 3)});
    double remote_ratio = percentile(ratios, 50);
    std::printf("remote vs local 1-client batch: %.2f vs %.2f ms median "
                "of %zu pairs, ratio %.2fx (pairs %.2f-%.2fx)\n",
                percentile(remoteMs, 50), percentile(localRunMs, 50),
                kRemotePairs, remote_ratio,
                *std::min_element(ratios.begin(), ratios.end()),
                *std::max_element(ratios.begin(), ratios.end()));
    std::fputs(latency.render().c_str(), stdout);
    if (max_remote_ratio > 0 && remote_ratio > max_remote_ratio) {
        std::printf("FAIL: remote batch %.2fx the local batch, gate "
                    "allows %.2fx\n",
                    remote_ratio, max_remote_ratio);
        status = 1;
    } else if (max_remote_ratio > 0) {
        std::printf("PASS: remote/local ratio %.2fx <= %.2fx\n",
                    remote_ratio, max_remote_ratio);
    }

    // Wire cost of the log encoding: the same stream uploaded from a
    // v1 and a v2 container, one request each over a fresh connection,
    // counting both directions so the (identical) replies are charged
    // equally to both.
    std::vector<uint8_t> log_v1 =
        encodeLog(stream, TraceLogFormat::kVersionV1);
    uint64_t wire_req[2] = {0, 0};
    ReplayStats wire_stats[2];
    {
        ServerConfig cfg;
        cfg.endpoint = "tcp:127.0.0.1:0";
        cfg.workers = 1;
        TeaServer server(cfg);
        server.start();
        std::string ep = server.endpoint();
        {
            TeaClient admin = TeaClient::connect(ep);
            admin.putAutomaton("gzip", *tea);
        }
        const std::vector<uint8_t> *logs[2] = {&log_v1, &log};
        for (int v = 0; v < 2; ++v) {
            TeaClient client = TeaClient::connect(ep);
            RemoteReplayOptions opt;
            opt.wantProfile = true;
            RemoteReplayResult r = client.replay("gzip", *logs[v], opt);
            wire_stats[v] = r.stats;
            wire_req[v] = client.bytesSent() + client.bytesReceived();
        }
        server.stop();
    }
    if (!(wire_stats[0] == wire_stats[1])) {
        std::fprintf(stderr,
                     "v1 and v2 uploads disagree on replay stats\n");
        return 1;
    }
    double wire_ratio =
        wire_req[1] > 0
            ? static_cast<double>(wire_req[0]) /
                  static_cast<double>(wire_req[1])
            : 0.0;
    std::printf("wire bytes/request: v1 %llu, v2 %llu (v2 %.2fx "
                "smaller on the wire, same replay result)\n",
                static_cast<unsigned long long>(wire_req[0]),
                static_cast<unsigned long long>(wire_req[1]),
                wire_ratio);
    if (min_wire_compression > 0 && wire_ratio < min_wire_compression) {
        std::printf("FAIL: v2 wire bytes only %.2fx below v1, "
                    "gate requires %.2fx\n",
                    wire_ratio, min_wire_compression);
        status = 1;
    } else if (min_wire_compression > 0) {
        std::printf("PASS: wire compression %.2fx >= %.2fx\n",
                    wire_ratio, min_wire_compression);
    }
    return status;
}
