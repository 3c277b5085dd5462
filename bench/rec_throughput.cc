/**
 * @file
 * Online recording throughput and the incremental-recompile payoff.
 *
 * Three measurements, matching the recording path's promises:
 *
 *   ingest    —  transitions/sec through a RecordingSession doing the
 *                full online loop: Algorithm 2 growth, periodic
 *                incremental recompile, atomic registry hot-swap. This
 *                is the rate a live RECORD stream can sustain.
 *   recompile —  one publish step at fleet scale: an automaton of N
 *                traces grows by a few, and the snapshot is rebuilt
 *                either from scratch (CompiledTea::compile) or through
 *                the delta path (CompiledTea::recompile). The ratio is
 *                the whole point of the delta path: publish cost must
 *                track the *growth*, not the automaton size.
 *   ref record — TeaRecorder over the ref-size gcc and gzip streams,
 *                under MRET and TT: ns/transition as the median (and
 *                quartiles) of interleaved gcc/gzip pairs. gcc installs
 *                hundreds of traces and gzip a few dozen, so a recorder
 *                whose install cost grows with the automaton shows up
 *                as a gcc/gzip ratio far above 1.
 *
 * Asserts bit identity between the delta and full images so the fast
 * path cannot win by publishing different bytes. --min-ratio X turns
 * the recompile comparison into a CI gate (perf-smoke pins it at 3
 * with --traces 2000), --max-record-ratio X gates the median MRET
 * gcc/gzip ratio (TT is reported, not gated: its extension installs
 * rebuild the automaton by design), and --json dumps everything
 * machine-readably.
 *
 * Usage: rec_throughput [--traces N] [--json FILE] [--min-ratio X]
 *                       [--max-record-ratio X]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rec/recording.hh"
#include "svc/registry.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/recorder.hh"
#include "trace/factory.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

using namespace tea;

namespace {

/** A synthetic automaton: `traces` two-block cyclic loops. */
Tea
makeSyntheticTea(size_t traces)
{
    TraceSet set;
    for (size_t t = 0; t < traces; ++t) {
        Trace trace;
        Addr base = 0x1000 + static_cast<Addr>(t) * 64;
        trace.blocks.push_back({base, base + 12, true});
        trace.blocks.push_back({base + 16, base + 28, false});
        trace.edges.push_back({0, 1});
        trace.edges.push_back({1, 0});
        set.add(std::move(trace));
    }
    return buildTea(set);
}

/**
 * A recording workload: per region, enter cold, ping-pong past the
 * selector's hot threshold so a trace installs, then exit. Appended
 * to `out`; returns the record count added.
 */
size_t
appendRegionStream(std::vector<BlockTransition> &out, size_t region,
                   int rounds)
{
    size_t before = out.size();
    Addr base = 0x1000 + static_cast<Addr>(region) * 64;
    BlockTransition tr{};
    tr.kind = EdgeKind::BranchTaken;
    tr.from.icount = 3;
    tr.from.start = 0x500;
    tr.from.end = 0x50c;
    tr.toStart = base;
    out.push_back(tr);
    for (int i = 0; i < rounds; ++i) {
        bool atHead = (i % 2) == 0;
        tr.from.start = atHead ? base : base + 16;
        tr.from.end = atHead ? base + 12 : base + 28;
        tr.toStart = atHead ? base + 16 : base;
        out.push_back(tr);
    }
    tr.from.start = base + 16;
    tr.from.end = base + 28;
    tr.toStart = 0x500;
    out.push_back(tr);
    return out.size() - before;
}

/** gcc/gzip pairs behind the ref record row: enough for quartiles. */
constexpr int kRefPairs = 11;

/** A workload's full block-transition stream at `size`. */
std::vector<BlockTransition>
captureStream(const std::string &name, InputSize size)
{
    Program prog = Workloads::build(name, size).program;
    std::vector<BlockTransition> out;
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { out.push_back(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    return out;
}

/** One TeaRecorder's installs and traces after a pass. */
struct RecordCount
{
    uint64_t installs = 0;
    uint64_t traces = 0;
};

/** Record `stream` once under `selector`; returns ns/transition. */
double
recordNsPerTransition(const std::vector<BlockTransition> &stream,
                      const std::string &selector, RecordCount &count)
{
    TeaRecorder recorder(makeSelector(selector));
    Stopwatch timer;
    for (const BlockTransition &tr : stream)
        recorder.feed(tr);
    double ns = timer.elapsedMillis() * 1e6 /
                static_cast<double>(stream.size());
    count.installs = recorder.installs();
    count.traces = recorder.traces().size();
    return ns;
}

/** Median and quartiles of a series. */
struct Spread
{
    double q1, median, q3;

    explicit Spread(const std::vector<double> &v)
        : q1(percentile(v, 25)), median(percentile(v, 50)),
          q3(percentile(v, 75))
    {
    }

    std::string
    json() const
    {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "{\"q1\": %.3f, \"median\": %.3f, \"q3\": %.3f}", q1,
                      median, q3);
        return buf;
    }
};

/** The ref-size record row of one selector. */
struct RefRecordRow
{
    std::string selector;
    std::vector<double> gccNs, gzipNs, ratio;
    RecordCount gcc, gzip;
};

} // namespace

int
main(int argc, char **argv)
{
    size_t traces = 400;
    std::string json_path;
    double min_ratio = 0.0;
    double max_record_ratio = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--traces") && i + 1 < argc)
            traces = static_cast<size_t>(std::atoi(argv[i + 1]));
        else if (!std::strcmp(argv[i], "--max-record-ratio") && i + 1 < argc)
            max_record_ratio = std::atof(argv[i + 1]);
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[i + 1];
        else if (!std::strcmp(argv[i], "--min-ratio") && i + 1 < argc)
            min_ratio = std::atof(argv[i + 1]);
    }
    if (traces < 100)
        traces = 100; // the ratio below is only meaningful at scale

    // ------------------------------------------------ ingest throughput
    // One stream visiting 64 regions, hot enough that each installs a
    // trace: the session pays growth, recompiles, and hot-swaps along
    // the way, exactly like a live RECORD stream.
    std::vector<BlockTransition> stream;
    constexpr size_t kRegions = 64;
    for (size_t r = 0; r < kRegions; ++r)
        appendRegionStream(stream, r, 150);

    constexpr int kReps = 5;
    double ingest_ms = 1e300;
    uint64_t swaps = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        AutomatonRegistry registry;
        rec::RecordingConfig cfg;
        cfg.swapInterval = 1024;
        rec::RecordingSession session("bench", registry, nullptr, cfg);
        Stopwatch timer;
        for (const BlockTransition &tr : stream)
            session.feed(tr);
        rec::RecordingResultSummary sum = session.finish();
        ingest_ms = std::min(ingest_ms, timer.elapsedMillis());
        swaps = sum.swaps;
    }
    double per_sec =
        static_cast<double>(stream.size()) / (ingest_ms / 1e3);

    // ------------------------------------------- recompile: full vs delta
    // An automaton of `traces` traces grows by 2%: the publish step a
    // mid-recording swap pays once the automaton is already large.
    size_t growth = traces / 50 != 0 ? traces / 50 : 1;
    auto prevTea = std::make_shared<const Tea>(makeSyntheticTea(traces));
    auto grownTea =
        std::make_shared<const Tea>(makeSyntheticTea(traces + growth));
    auto prev = CompiledTea::compile(prevTea);

    double full_ms = 1e300, delta_ms = 1e300;
    std::shared_ptr<const CompiledTea> full, delta;
    for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch timer;
        full = CompiledTea::compile(grownTea);
        full_ms = std::min(full_ms, timer.elapsedMillis());
    }
    for (int rep = 0; rep < kReps; ++rep) {
        uint64_t deltas = CompiledTea::recompileCount();
        Stopwatch timer;
        delta = CompiledTea::recompile(grownTea, prev, /*appendOnly=*/true);
        delta_ms = std::min(delta_ms, timer.elapsedMillis());
        if (CompiledTea::recompileCount() != deltas + 1) {
            std::fprintf(stderr, "FAIL: delta path fell back\n");
            return 1;
        }
    }

    // Bit-identity guard: the fast path must publish the same bytes.
    if (delta->serialize() != full->serialize()) {
        std::fprintf(stderr,
                     "FAIL: delta image diverged from full compile\n");
        return 1;
    }

    double ratio = delta_ms > 0 ? full_ms / delta_ms : 0.0;

    // ------------------------------------------ ref-size record: gcc/gzip
    // Interleaved pairs (alternating which program runs first), so host
    // drift hits both sides of a pair alike.
    std::vector<BlockTransition> gccStream =
        captureStream("syn.gcc", InputSize::Ref);
    std::vector<BlockTransition> gzipStream =
        captureStream("syn.gzip", InputSize::Ref);
    std::vector<RefRecordRow> rows = {{"mret", {}, {}, {}, {}, {}},
                                      {"tt", {}, {}, {}, {}, {}}};
    for (int p = 0; p < kRefPairs; ++p) {
        for (RefRecordRow &row : rows) {
            double gzipNs = 0, gccNs = 0;
            if (p % 2 == 0)
                gzipNs = recordNsPerTransition(gzipStream, row.selector,
                                               row.gzip);
            gccNs = recordNsPerTransition(gccStream, row.selector, row.gcc);
            if (p % 2 != 0)
                gzipNs = recordNsPerTransition(gzipStream, row.selector,
                                               row.gzip);
            row.gccNs.push_back(gccNs);
            row.gzipNs.push_back(gzipNs);
            row.ratio.push_back(gccNs / gzipNs);
        }
    }

    std::printf("rec_throughput: %zu-transition stream over %zu "
                "regions; recompile at %zu(+%zu) traces\n",
                stream.size(), kRegions, traces, growth);
    TextTable table({"measurement", "best ms", "rate"});
    table.addRow({"online ingest", TextTable::num(ingest_ms, 2),
                  TextTable::num(per_sec / 1e6, 2) + " M trans/s"});
    table.addRow({"full recompile", TextTable::num(full_ms, 3), ""});
    table.addRow({"incremental recompile", TextTable::num(delta_ms, 3),
                  TextTable::num(ratio, 1) + "x faster"});
    std::fputs(table.render().c_str(), stdout);
    std::printf("session published %llu hot-swaps while ingesting\n",
                static_cast<unsigned long long>(swaps));

    std::printf("ref-size TeaRecorder, median [q1, q3] of %d interleaved "
                "pairs (%zu gcc / %zu gzip transitions):\n",
                kRefPairs, gccStream.size(), gzipStream.size());
    TextTable refTable({"selector", "gcc ns/trans", "gzip ns/trans",
                        "gcc/gzip", "gcc installs (ext)"});
    auto cell = [](const Spread &s) {
        return TextTable::num(s.median, 1) + " [" + TextTable::num(s.q1, 1) +
               ", " + TextTable::num(s.q3, 1) + "]";
    };
    for (const RefRecordRow &row : rows) {
        refTable.addRow(
            {row.selector, cell(Spread(row.gccNs)), cell(Spread(row.gzipNs)),
             TextTable::num(Spread(row.ratio).median, 2) + "x",
             std::to_string(row.gcc.installs) + " (" +
                 std::to_string(row.gcc.installs - row.gcc.traces) + ")"});
    }
    std::fputs(refTable.render().c_str(), stdout);

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"rec_throughput\",\n");
        std::fprintf(f, "  \"streamTransitions\": %zu,\n", stream.size());
        std::fprintf(f, "  \"ingestMs\": %.3f,\n", ingest_ms);
        std::fprintf(f, "  \"transitionsPerSec\": %.0f,\n", per_sec);
        std::fprintf(f, "  \"swaps\": %llu,\n",
                     static_cast<unsigned long long>(swaps));
        std::fprintf(f, "  \"recompileTraces\": %zu,\n", traces);
        std::fprintf(f, "  \"recompileGrowth\": %zu,\n", growth);
        std::fprintf(f, "  \"fullRecompileMs\": %.4f,\n", full_ms);
        std::fprintf(f, "  \"incrementalRecompileMs\": %.4f,\n",
                     delta_ms);
        std::fprintf(f, "  \"incrementalSpeedup\": %.2f,\n", ratio);
        std::fprintf(f, "  \"refRecord\": {\n");
        std::fprintf(f, "    \"pairs\": %d,\n", kRefPairs);
        std::fprintf(f, "    \"gccTransitions\": %zu,\n", gccStream.size());
        std::fprintf(f, "    \"gzipTransitions\": %zu,\n",
                     gzipStream.size());
        for (size_t i = 0; i < rows.size(); ++i) {
            const RefRecordRow &row = rows[i];
            std::fprintf(f, "    \"%s\": {\n", row.selector.c_str());
            std::fprintf(f, "      \"gccNsPerTransition\": %s,\n",
                         Spread(row.gccNs).json().c_str());
            std::fprintf(f, "      \"gzipNsPerTransition\": %s,\n",
                         Spread(row.gzipNs).json().c_str());
            std::fprintf(f, "      \"gccOverGzip\": %s,\n",
                         Spread(row.ratio).json().c_str());
            std::fprintf(f, "      \"gccInstalls\": %llu,\n",
                         static_cast<unsigned long long>(row.gcc.installs));
            std::fprintf(f, "      \"gccExtensionInstalls\": %llu,\n",
                         static_cast<unsigned long long>(row.gcc.installs -
                                                         row.gcc.traces));
            std::fprintf(f, "      \"gzipInstalls\": %llu\n",
                         static_cast<unsigned long long>(row.gzip.installs));
            std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  }\n");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }

    int failed = 0;
    if (min_ratio > 0.0 && ratio < min_ratio) {
        std::fprintf(stderr,
                     "FAIL: incremental recompile only %.2fx faster "
                     "than full (gate %.2fx)\n",
                     ratio, min_ratio);
        failed = 1;
    }
    double recordRatio = Spread(rows[0].ratio).median;
    if (max_record_ratio > 0.0) {
        bool ok = recordRatio <= max_record_ratio;
        std::fprintf(ok ? stdout : stderr,
                     "%s: gcc/gzip MRET record ratio %.2fx (gate %.2fx)\n",
                     ok ? "PASS" : "FAIL", recordRatio, max_record_ratio);
        failed |= ok ? 0 : 1;
    }
    return failed;
}
