/**
 * @file
 * Shared types of the teabench load generator.
 *
 * teabench drives one workload per process (see README.md beside this
 * directory): it brings the system under test up, runs a closed-loop
 * measurement phase, checks every operation's output against an
 * oracle, and prints the metrics. A traced run additionally times the
 * bench's own calls into each layer's public functions on the same
 * inputs and splits the end-to-end time into a per-layer ledger.
 */

#ifndef TEABENCH_BENCH_HH
#define TEABENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tea/automaton.hh"
#include "tea/compiled.hh"
#include "tea/replayer.hh"
#include "vm/block.hh"
#include "workloads/workload.hh"

namespace teabench {

/** Monotonic clock in nanoseconds. */
uint64_t nowNs();

/** Linear-interpolated quantile of `v` (q in [0,1]); 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Median wall time in ns of `reps` calls of `fn` (one warm-up call
 * first, so page faults and lazy allocation stay out of the figure).
 */
template <typename Fn>
double
medianNs(int reps, Fn &&fn)
{
    fn();
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        uint64_t t0 = nowNs();
        fn();
        t.push_back(static_cast<double>(nowNs() - t0));
    }
    return median(std::move(t));
}

/** One program's generated inputs at one input size. */
struct ProgramInput
{
    std::string program; ///< suite name, "syn.gzip"
    std::string name;    ///< automaton name on the wire, "gzip.ref"
    std::vector<uint8_t> teaBytes; ///< serialized automaton (saveTea)
    std::shared_ptr<const tea::Tea> tea;
    std::shared_ptr<const tea::CompiledTea> compiled;
    std::vector<uint8_t> deltaLog;  ///< v2 log, delta chunks
    std::vector<uint8_t> elidedLog; ///< v2 log, elided against `tea`
};

/**
 * Record every input the workloads use into `cacheDir` (VM runs, the
 * automaton recording, both log encodings). Files already present are
 * kept, so only the first run in a checkout pays for generation.
 */
void generateInputs(const std::string &cacheDir);

/** Load one generated program input. @throws FatalError if missing. */
ProgramInput loadInput(const std::string &cacheDir,
                       const std::string &program, tea::InputSize size);

/** Decode a whole log (elided logs need their automaton). */
std::vector<tea::BlockTransition>
decodeAll(const std::vector<uint8_t> &log,
          const tea::CompiledTea *automaton = nullptr);

/** What a correct replay of one stream must produce. */
struct ReplayExpect
{
    tea::ReplayStats stats;
    std::vector<uint64_t> execCounts; ///< per-TBB profile
};

/** Replay `log` on the reference kernel, streaming (the oracle). */
ReplayExpect referenceReplay(const tea::Tea &tea,
                             const std::vector<uint8_t> &log);

/** Replay `log` through runReplayJob (the local service). */
ReplayExpect jobReplay(const ProgramInput &in,
                       const std::vector<uint8_t> &log);

/** The offline TeaRecorder outcome a RECORD of a stream must match. */
struct RecordExpect
{
    uint64_t transitions = 0;
    uint64_t traces = 0;
    uint64_t states = 0;
    tea::ReplayStats stats;
    std::shared_ptr<const tea::Tea> tea; ///< the recorded automaton
};

RecordExpect offlineRecord(const std::vector<tea::BlockTransition> &s);

/** What kind of request an operation was. */
enum class OpKind : uint8_t
{
    Replay,
    Record
};

/** One completed (or failed) closed-loop operation. */
struct OpSample
{
    OpKind kind = OpKind::Replay;
    uint32_t input = 0;       ///< workload-specific input index
    double ms = 0;            ///< issue to last reply byte
    uint64_t endNs = 0;       ///< when it completed (nowNs)
    uint64_t transitions = 0; ///< replayed or recorded transitions
    uint64_t wireBytes = 0;   ///< client bytes sent + received
    uint64_t swaps = 0;       ///< RECORD only: snapshots published
    /** Traced local ops: the bench's own decode and kernel split. */
    uint64_t decodeNs = 0;
    uint64_t kernelNs = 0;
    bool ok = false;
};

/** The outcome of one measurement phase. */
struct PhaseResult
{
    std::vector<OpSample> ops;
    uint64_t startNs = 0;    ///< nowNs() when the phase began
    double seconds = 0;      ///< wall time from start to last reply
    double cpuSeconds = 0;   ///< CPU time of the program under test
    uint64_t ctxSwitches = 0; ///< server context switches (remote)
    double peakRssMb = 0;     ///< peak RSS of the program under test
    std::string serverStats;  ///< STATS JSON after a traced phase
    std::vector<std::string> errors; ///< first few failure messages

    uint64_t failed() const;
    double meanMs() const;
};

/** Where a workload runs and what it may use. */
struct Env
{
    std::string cacheDir; ///< generated inputs
    std::string workDir;  ///< scratch for stores, server logs
    std::string teadbt;   ///< the CLI binary the remote workloads serve
    uint64_t seed = 1;
};

/**
 * A ledger row: one layer's share of an average operation. Clocked
 * rows come from a timer around a call; residual rows are what is left
 * of an enclosing clocked time after its clocked parts.
 */
struct LedgerRow
{
    std::string layer;
    double msPerOp = 0;
    bool clocked = true;
};

/** Per-layer metrics plus the ledger of one traced run. */
struct LayerReport
{
    std::map<std::string, double> metrics;
    std::vector<LedgerRow> ledger;
    double e2eMsPerOp = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Bring the system under test up from nothing (tearing down any
     * previous instance) and return the seconds it took.
     */
    virtual double setup() = 0;

    /**
     * One closed-loop phase of `seconds`; every op is checked. A traced
     * phase also times the layers of each op where the bench can call
     * them in place (the local decode → kernel split).
     */
    virtual PhaseResult run(double seconds, bool traced) = 0;

    /** Fetch the server's STATS into `phase` (remote workloads). */
    virtual void readServerStats(PhaseResult &) {}

    /** Per-layer probes on this workload's inputs. */
    virtual LayerReport layers(const PhaseResult &traced) = 0;

    /** Stop every process the workload started. */
    virtual void shutdown() {}
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Env &env);

} // namespace teabench

#endif // TEABENCH_BENCH_HH
