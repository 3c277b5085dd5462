/**
 * @file
 * Folding per-input probe figures into per-layer metrics and the
 * per-op ledger of a traced run.
 */

#ifndef TEABENCH_LEDGER_HH
#define TEABENCH_LEDGER_HH

#include <string>
#include <vector>

#include "bench.hh"

namespace teabench {

/** Probe figures of one workload input, per op of that input. */
struct InputCost
{
    uint64_t transitions = 0;   ///< replayed or recorded per op
    // Replay inputs.
    uint64_t records = 0;       ///< records in the log sent
    uint64_t elidedRecords = 0; ///< of those, carried as elision bits
    double decodeSentNs = 0;    ///< drain of the log the op sends
    double decodeDeltaNs = 0;   ///< drain of the stream's delta log
    double decodeElidedNs = 0;  ///< drain of the stream's elided log
    double jobNs = 0;           ///< runReplayJob
    double kernelNs = 0;        ///< compiled feedAll, pre-decoded
    double kernelRefNs = 0;     ///< reference feedAll, pre-decoded
    uint64_t localCacheHits = 0;
    uint64_t traceExits = 0;
    // The wire path (every input; replay or record request).
    double encodeNs = 0;      ///< client frame building
    double frameDecodeNs = 0; ///< FrameDecoder + CRC over the request
    double consumeNs = 0;     ///< socket-free Session::consume
    // Record inputs.
    double ingestNs = 0; ///< RecordingSession::feedBatch, whole stream
    double finishNs = 0; ///< RecordingSession::finish
};

/** Figures that come from a live server rather than from one input. */
struct WireFacts
{
    double rttMs = 0;         ///< mean client round trip per op
    double bytesPerOp = 0;    ///< client bytes sent + received
    double ctxPerOp = 0;      ///< server context switches per op
    double dispatchMs = 0;    ///< mean server `dispatch` span
    double storeHitRatio = 0; ///< store.hits / (hits + mmap loads)
};

/** Recording and store figures of the workload's automata. */
struct GrowthFacts
{
    double ingestNsPerTransition = 0;
    double finishMs = 0;
    double incrementalMs = 0;
    double fullMs = 0;
    double faultInUs = 0;
    double writeThroughMs = 0;
};

/**
 * Weight each input's costs by how often the traced phase ran it and
 * build the per-layer metrics and the ledger. `remote` selects the
 * request-path ledger (client, session, server, wire) over the local
 * one (decode, kernel, job glue).
 */
LayerReport assembleReport(const PhaseResult &traced,
                           const std::vector<InputCost> &costs,
                           const WireFacts &wire, const GrowthFacts &growth,
                           bool remote);

/** Print the ledger: rows, the layer holding most time, explained %. */
void printLedger(const std::string &workload, const LayerReport &report);

} // namespace teabench

#endif // TEABENCH_LEDGER_HH
