/**
 * @file
 * Input generation, the input cache, and the correctness oracles.
 *
 * Inputs are pure functions of (program, size): the guest programs are
 * deterministic, so a cached log is byte-identical to a fresh one and
 * the seed never has to reach the generator. The seed only decides
 * which inputs a workload sends, in what order, under what names.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sys/stat.h>

#include "bench.hh"
#include "dbt/runtime.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/recorder.hh"
#include "tea/serialize.hh"
#include "trace/factory.hh"
#include "util/logging.hh"
#include "vm/machine.hh"

namespace teabench {

using namespace tea;

namespace {

const char *
sizeName(InputSize size)
{
    switch (size) {
    case InputSize::Test:
        return "test";
    case InputSize::Train:
        return "train";
    case InputSize::Ref:
        return "ref";
    }
    return "?";
}

std::string
basePath(const std::string &dir, const std::string &program,
         InputSize size)
{
    return dir + "/" + program + "." + sizeName(size);
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("teabench: missing input %s (run `teabench generate`)",
              path.c_str());
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

/** Write through a temporary name so a killed run leaves no torn file. */
void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            fatal("teabench: cannot write %s", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("teabench: cannot rename %s", tmp.c_str());
}

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

void
generateOne(const std::string &dir, const std::string &program,
            InputSize size)
{
    std::string base = basePath(dir, program, size);
    // The .tea is written last, so its presence marks a complete set.
    if (exists(base + ".tea"))
        return;
    tea::Workload w = Workloads::build(program, size);
    DbtRuntime dbt(w.program);
    auto tea = std::make_shared<const Tea>(
        buildTea(dbt.record("mret").traces));
    std::vector<uint8_t> delta, elided;
    {
        TraceLogWriter wd(&delta);
        TraceLogOptions eopt;
        eopt.elideWith = CompiledTea::compile(tea);
        TraceLogWriter we(&elided, eopt);
        Machine m(w.program);
        BlockTracker tracker(
            w.program,
            [&](const BlockTransition &tr) {
                wd.append(tr);
                we.append(tr);
            },
            /*rep_per_iteration=*/false, /*collect_blocks=*/false);
        m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                    /*split_at_special=*/false);
        wd.finish();
        we.finish();
    }
    writeBytes(base + ".delta.tlog", delta);
    writeBytes(base + ".elided.tlog", elided);
    writeBytes(base + ".tea", saveTea(*tea));
}

/** The automaton name a program gets on the wire: "gzip.ref". */
std::string
wireName(const std::string &program, InputSize size)
{
    std::string s = program.rfind("syn.", 0) == 0 ? program.substr(4)
                                                   : program;
    return s + "." + sizeName(size);
}

} // namespace

void
generateInputs(const std::string &cacheDir)
{
    ::mkdir(cacheDir.c_str(), 0755);
    for (const char *p :
         {"syn.gzip", "syn.gcc", "syn.mcf", "syn.perlbmk", "syn.bzip2",
          "syn.vortex"})
        generateOne(cacheDir, p, InputSize::Ref);
    for (const std::string &p : Workloads::names())
        generateOne(cacheDir, p, InputSize::Test);
}

ProgramInput
loadInput(const std::string &cacheDir, const std::string &program,
          InputSize size)
{
    std::string base = basePath(cacheDir, program, size);
    ProgramInput in;
    in.program = program;
    in.name = wireName(program, size);
    in.teaBytes = readBytes(base + ".tea");
    in.deltaLog = readBytes(base + ".delta.tlog");
    in.elidedLog = readBytes(base + ".elided.tlog");
    in.tea = std::make_shared<const Tea>(loadTea(in.teaBytes));
    in.compiled = CompiledTea::compile(in.tea);
    return in;
}

std::vector<BlockTransition>
decodeAll(const std::vector<uint8_t> &log, const CompiledTea *automaton)
{
    std::vector<BlockTransition> out;
    TraceLogReader reader(log.data(), log.size(),
                          TraceLogReader::Mode::Strict, automaton);
    while (const std::vector<BlockTransition> *chunk = reader.nextChunk())
        out.insert(out.end(), chunk->begin(), chunk->end());
    return out;
}

ReplayExpect
referenceReplay(const Tea &tea, const std::vector<uint8_t> &log)
{
    LookupConfig cfg;
    cfg.useCompiled = false;
    TeaReplayer replayer(tea, cfg);
    TraceLogReader reader(log.data(), log.size());
    BlockTransition tr;
    while (reader.next(tr))
        replayer.feed(tr);
    ReplayExpect out;
    out.stats = replayer.stats();
    out.execCounts.resize(replayer.numStates());
    for (StateId id = 0; id < replayer.numStates(); ++id)
        out.execCounts[id] = replayer.execCount(id);
    return out;
}

ReplayExpect
jobReplay(const ProgramInput &in, const std::vector<uint8_t> &log)
{
    ReplayJob job;
    job.tea = in.tea;
    job.compiled = in.compiled;
    job.logBytes = &log;
    StreamResult res = runReplayJob(job, LookupConfig{});
    if (!res.ok())
        fatal("teabench: local replay of %s failed: %s", in.name.c_str(),
              res.error.c_str());
    return ReplayExpect{res.stats, std::move(res.execCounts)};
}

RecordExpect
offlineRecord(const std::vector<BlockTransition> &stream)
{
    TeaRecorder recorder(makeSelector("mret"));
    for (const BlockTransition &tr : stream)
        recorder.feed(tr);
    RecordExpect out;
    out.transitions = stream.size();
    out.traces = recorder.traces().size();
    out.states = recorder.tea().numStates();
    out.stats = recorder.stats();
    out.tea = std::make_shared<const Tea>(recorder.tea());
    return out;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

uint64_t
PhaseResult::failed() const
{
    uint64_t n = 0;
    for (const OpSample &op : ops)
        n += op.ok ? 0 : 1;
    return n;
}

double
PhaseResult::meanMs() const
{
    if (ops.empty())
        return 0.0;
    double sum = 0;
    for (const OpSample &op : ops)
        sum += op.ms;
    return sum / static_cast<double>(ops.size());
}

} // namespace teabench
