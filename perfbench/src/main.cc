/**
 * @file
 * teabench: the repository benchmark's load generator.
 *
 *   teabench generate --cache DIR
 *   teabench run --workload W --seed N --seconds S --trace 0|1
 *                --cache DIR --work DIR --teadbt PATH
 *
 * `run` prints host facts, every metric by name with its unit and
 * sample count, and as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 they are the
 * per-layer ones plus the ledger (see README.md beside this directory).
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/utsname.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench.hh"
#include "ledger.hh"
#include "server.hh"
#include "util/logging.hh"

using namespace teabench;

namespace {

/** Seeds at or above this are held out: never used while tuning. */
constexpr uint64_t kHeldOutSeeds = 1'000'000;

/** Set-ups per end-to-end run; setup_s is their median. */
constexpr int kSetups = 11;
constexpr std::chrono::milliseconds kSetupGap{100};

std::string
absolute(const std::string &path)
{
    char buf[PATH_MAX];
    if (::realpath(path.c_str(), buf) == nullptr)
        tea::fatal("teabench: no such path: %s", path.c_str());
    return buf;
}

[[noreturn]] void
usage()
{
    std::fputs("usage: teabench generate --cache DIR\n"
               "       teabench run --workload W --seed N --seconds S "
               "--trace 0|1 --cache DIR --work DIR --teadbt PATH\n",
               stderr);
    std::exit(2);
}

/** Wall time of `threads` threads each spinning the same loop. */
double
spinSeconds(unsigned threads)
{
    auto spin = [] {
        volatile uint64_t x = 0;
        for (uint64_t i = 0; i < 40'000'000; ++i)
            x = x + i;
    };
    uint64_t t0 = nowNs();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back(spin);
    for (std::thread &t : pool)
        t.join();
    return static_cast<double>(nowNs() - t0) / 1e9;
}

void
printFacts(const std::string &workload, uint64_t seed, int trace)
{
    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    double one = spinSeconds(1);
    double all = spinSeconds(nproc);
    utsname u{};
    ::uname(&u);
    std::printf("facts {\"workload\": \"%s\", \"seed\": %llu, "
                "\"held_out\": %s, \"trace\": %d, \"nproc\": %u, "
                "\"effective_parallelism\": %.2f, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"kernel\": \"%s %s\"}\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seed >= kHeldOutSeeds ? "true" : "false", trace, nproc,
                all > 0 ? nproc * one / all : 0.0, TEABENCH_BUILD_TYPE,
                TEABENCH_COMPILER, u.sysname, u.release);
}

/**
 * Latency percentiles are taken per sixth of the phase and averaged.
 * This host alternates between a fast and a slow state every few
 * seconds (3-s windows of one local-replay run ranged 19.5-27
 * streams/s). A percentile over the whole phase jumps between the two
 * states' values whenever its rank falls inside one stream's latency
 * mode; the mean of per-window percentiles moves in proportion to the
 * time spent in each state. Six windows keep ten samples beyond p90 in
 * each window of every workload at 30 s.
 */
constexpr int kLatencyWindows = 6;

/**
 * Latencies of one op kind, split into the phase's windows by
 * completion time (ops issued in time but finished after the deadline
 * count in the last window). A failed op never meets a limit.
 */
std::vector<std::vector<double>>
latencies(const PhaseResult &p, OpKind kind, double seconds)
{
    std::vector<std::vector<double>> windows(kLatencyWindows);
    double width = seconds / kLatencyWindows * 1e9;
    for (const OpSample &op : p.ops) {
        if (op.kind != kind)
            continue;
        double at = static_cast<double>(op.endNs - p.startNs) / width;
        int w = std::min(static_cast<int>(at), kLatencyWindows - 1);
        windows[w].push_back(op.ok ? op.ms : HUGE_VAL);
    }
    return windows;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printMetric(const Metric &m, const std::string &note)
{
    std::printf("metric %-40s %.6g %s%s\n", m.name.c_str(), m.value, m.unit,
                note.c_str());
}

/** Print a windowed latency quantile with its sample count and depth. */
Metric
latencyMetric(const std::string &name,
              const std::vector<std::vector<double>> &windows, double q)
{
    double sum = 0;
    size_t used = 0, n = 0, beyond = SIZE_MAX;
    for (const std::vector<double> &v : windows) {
        if (v.empty())
            continue;
        double value = quantile(v, q);
        size_t over = 0;
        for (double x : v)
            over += x > value ? 1 : 0;
        sum += value;
        n += v.size();
        beyond = std::min(beyond, over);
        ++used;
    }
    double value = used ? sum / static_cast<double>(used) : 0.0;
    Metric m{name, std::isfinite(value) ? value : 1e12, "ms"};
    printMetric(m, " (mean of " + std::to_string(used) + " windows; n=" +
                       std::to_string(n) + ", at least " +
                       std::to_string(used ? beyond : 0) +
                       " beyond in each)");
    return m;
}

/** The per-layer metrics, in BENCHMARK.json order, with their units. */
const std::vector<std::pair<std::string, const char *>> kLayerMetrics = {
    {"net.client.encode_us", "us"},
    {"net.frame.decode_us", "us"},
    {"net.session.consume_ms", "ms"},
    {"net.wire_wait_ms", "ms"},
    {"net.wire_bytes_per_op", "B"},
    {"net.ctx_switches_per_op", "count"},
    {"net.dispatch_wait_ms", "ms"},
    {"svc.decode_ns_per_rec.delta", "ns"},
    {"svc.decode_ns_per_rec.elided", "ns"},
    {"svc.job_ns_per_transition", "ns"},
    {"svc.job_other_pct", "%"},
    {"svc.elided_ratio", "ratio"},
    {"tea.kernel_ns_per_transition", "ns"},
    {"tea.kernel_ns_per_transition.reference", "ns"},
    {"tea.local_cache_hit_ratio", "ratio"},
    {"tea.recompile_ms.incremental", "ms"},
    {"tea.recompile_ms.full", "ms"},
    {"rec.ingest_ns_per_transition", "ns"},
    {"rec.finish_ms", "ms"},
    {"rec.swaps_per_op", "count"},
    {"store.fault_in_us", "us"},
    {"store.write_through_ms", "ms"},
    {"store.hit_ratio", "ratio"},
    {"ledger.explained_pct", "%"},
    {"obs.trace_overhead_pct", "%"},
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

/** Run one phase and report how much CPU the hypervisor took meanwhile. */
PhaseResult
measure(Workload &w, double seconds, bool traced)
{
    HostCpu h0 = sampleHostCpu();
    PhaseResult p = w.run(seconds, traced);
    HostCpu h1 = sampleHostCpu();
    double total = static_cast<double>(h1.total - h0.total);
    std::printf("host steal %.2f%% of CPU time during the %.0f s phase\n",
                total > 0 ? 100.0 * (h1.steal - h0.steal) / total : 0.0,
                seconds);
    return p;
}

void
printErrors(const PhaseResult &p)
{
    for (const std::string &e : p.errors)
        std::printf("failure: %s\n", e.c_str());
}

int
runEndToEnd(Workload &w, const std::string &name, double seconds)
{
    // Spread the set-ups over a few seconds, so their median samples the
    // host over time rather than one moment of it.
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        if (i > 0)
            std::this_thread::sleep_for(kSetupGap);
        setups.push_back(w.setup());
    }
    PhaseResult p = measure(w, seconds, false);
    w.shutdown();
    printErrors(p);

    uint64_t attempted = p.ops.size();
    uint64_t failed = p.failed();
    double ok = static_cast<double>(attempted - failed);
    double transitions = 0;
    for (const OpSample &op : p.ops)
        transitions += op.ok ? static_cast<double>(op.transitions) : 0.0;

    std::vector<Metric> out;
    out.push_back({"setup_s", median(setups), "s"});
    printMetric(out.back(),
                " (median of " + std::to_string(kSetups) + " set-ups)");
    out.push_back({"ops_per_s", ok / p.seconds, "1/s"});
    printMetric(out.back(), " (" + std::to_string(attempted - failed) +
                                " ops in " + std::to_string(p.seconds) +
                                " s)");
    out.push_back({"transitions_per_s", transitions / p.seconds, "1/s"});
    printMetric(out.back(), "");
    auto replays = latencies(p, OpKind::Replay, seconds);
    out.push_back(latencyMetric("replay_p50_ms", replays, 0.50));
    out.push_back(latencyMetric("replay_p90_ms", replays, 0.90));
    out.push_back({"cpu_us_per_op", ok > 0 ? p.cpuSeconds * 1e6 / ok : 0,
                   "us"});
    printMetric(out.back(), name == "local-replay"
                                ? " (bench process, which runs the jobs)"
                                : " (server process)");
    out.push_back({"rss_mb", p.peakRssMb, "MB"});
    printMetric(out.back(), name == "local-replay" ? " (bench process)"
                                                   : " (server process)");

    // Reported, not gated (see README.md): the tail and the RECORD
    // latencies exist on only some workloads or lack ten samples
    // beyond them at this run length.
    latencyMetric("info.replay_p99_ms", replays, 0.99);
    auto records = latencies(p, OpKind::Record, seconds);
    if (std::any_of(records.begin(), records.end(),
                    [](const std::vector<double> &v) { return !v.empty(); })) {
        latencyMetric("info.record_p50_ms", records, 0.50);
        latencyMetric("info.record_p90_ms", records, 0.90);
    }
    printMetric({"info.failed_frac",
                 attempted ? static_cast<double>(failed) / attempted : 1.0,
                 "ratio"},
                " (" + std::to_string(failed) + " of " +
                    std::to_string(attempted) + ")");

    printResult(failed == 0 && attempted > 0, attempted, failed, out);
    return 0;
}

int
runTraced(Workload &w, const std::string &name, double seconds)
{
    w.setup();
    // Both halves run the same workload; only the second is traced, so
    // the difference of their mean op times is what tracing costs.
    PhaseResult plain = measure(w, seconds / 2, false);
    PhaseResult traced = measure(w, seconds / 2, true);
    w.readServerStats(traced);
    w.shutdown();
    printErrors(plain);
    printErrors(traced);

    LayerReport report = w.layers(traced);
    double base = plain.meanMs();
    report.metrics["obs.trace_overhead_pct"] =
        base > 0 ? 100.0 * (traced.meanMs() - base) / base : 0.0;
    printLedger(name, report);

    std::vector<Metric> out;
    for (const auto &[metric, unit] : kLayerMetrics) {
        out.push_back({metric, report.metrics.at(metric), unit});
        printMetric(out.back(), "");
    }
    uint64_t attempted = plain.ops.size() + traced.ops.size();
    uint64_t failed = plain.failed() + traced.failed();
    printResult(failed == 0 && attempted > 0, attempted, failed, out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    std::string workload, cache, work, teadbt;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            trace = std::atoi(v.c_str());
        else if (k == "--cache")
            cache = v;
        else if (k == "--work")
            work = v;
        else if (k == "--teadbt")
            teadbt = v;
        else
            usage();
    }
    try {
        if (cmd == "generate" && !cache.empty()) {
            generateInputs(cache);
            return 0;
        }
        if (cmd != "run" || workload.empty() || seconds <= 0 ||
            (trace != 0 && trace != 1) || cache.empty() || work.empty() ||
            teadbt.empty())
            usage();
        printFacts(workload, seed, trace);
        std::fflush(stdout);
        // The server runs in the work directory, so pass it absolute paths.
        Env env{absolute(cache), absolute(work), absolute(teadbt), seed};
        std::unique_ptr<Workload> w = makeWorkload(workload, env);
        return trace ? runTraced(*w, workload, seconds)
                     : runEndToEnd(*w, workload, seconds);
    } catch (const tea::FatalError &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
