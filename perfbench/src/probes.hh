/**
 * @file
 * Per-layer probes: the bench's own timed calls into each layer's
 * public functions, on a workload's inputs. Nothing here is timed
 * inside src/; every figure is a median over repeated calls.
 */

#ifndef TEABENCH_PROBES_HH
#define TEABENCH_PROBES_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "net/client.hh"
#include "rec/service.hh"
#include "store/store.hh"
#include "svc/registry.hh"

namespace teabench {

/** The frames TeaClient::replay() writes for one profiled request. */
std::vector<uint8_t> encodeReplayRequest(const std::string &name,
                                         const std::vector<uint8_t> &log);

/** The frames TeaClient::record() writes for one v2 recording. */
std::vector<uint8_t>
encodeRecordRequest(const std::string &name,
                    const std::vector<tea::BlockTransition> &stream);

/** FrameDecoder over `bytes` (CRC checks included); frames found. */
size_t decodeFrames(const std::vector<uint8_t> &bytes);

/**
 * The server-side state a Session runs against, wired the way
 * `teadbt serve` wires it: a registry, optionally a store, and the
 * recording service.
 */
class SessionRig
{
  public:
    /** @param storeDir empty for a RAM-only registry */
    explicit SessionRig(const std::string &storeDir);

    void put(const std::string &name, std::shared_ptr<const tea::Tea> t);

    /**
     * Serve one TeaClient conversation from a socket-free Session
     * behind a loopback listener the bench owns, and return the exact
     * request bytes the client sent after its HELLO.
     */
    std::vector<uint8_t>
    capture(const std::function<void(tea::TeaClient &)> &conversation);

    /**
     * Median ns of Session::consume() over `request` on a fresh,
     * handshaken Session. @throws FatalError when the reply is ERROR.
     */
    double consumeNs(const std::vector<uint8_t> &request, int reps);

    tea::AutomatonRegistry registry;
    std::unique_ptr<tea::AutomatonStore> store;
    std::unique_ptr<tea::rec::RecordingService> recorder;
};

/** Median ns of a full TraceLogReader drain of `log`. */
double decodeNs(const std::vector<uint8_t> &log,
                const tea::CompiledTea *automaton, int reps);

/** Median ns of runReplayJob over `log`. */
double jobNs(const std::shared_ptr<const tea::Tea> &tea,
             const std::shared_ptr<const tea::CompiledTea> &compiled,
             const std::vector<uint8_t> &log, int reps);

/** Median ns of feedAll over pre-decoded records. */
double kernelNs(const std::shared_ptr<const tea::Tea> &tea,
                const std::shared_ptr<const tea::CompiledTea> &compiled,
                const std::vector<tea::BlockTransition> &records,
                bool reference, int reps);

/** Recording-side costs of one stream. */
struct RecordCost
{
    double ingestNs = 0;  ///< RecordingSession::feedBatch, whole stream
    double finishNs = 0;  ///< RecordingSession::finish
    double incrementalMs = 0; ///< mean CompiledTea::recompile (delta)
    double fullMs = 0;        ///< mean full compile of the same growth
    uint64_t recompiles = 0;  ///< growth steps measured
};

/**
 * Record `stream` through a RecordingSession the way a RECORD request
 * does (4096-record batches; finish writes through when `store` is
 * set), and replay its growth steps through CompiledTea::recompile
 * against a full compile.
 */
RecordCost recordCost(const std::vector<tea::BlockTransition> &stream,
                      tea::AutomatonRegistry &registry,
                      tea::AutomatonStore *store, int reps);

/** Store-side costs of one automaton. */
struct StoreCost
{
    double faultInNs = 0;      ///< AutomatonStore::get on a cold name
    double writeThroughNs = 0; ///< AutomatonStore::writeThrough
};

StoreCost storeCost(tea::AutomatonStore &store, const std::string &name,
                    const std::shared_ptr<const tea::Tea> &tea, int reps);

} // namespace teabench

#endif // TEABENCH_PROBES_HH
