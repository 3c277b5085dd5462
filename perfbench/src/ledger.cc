#include "ledger.hh"

#include <algorithm>
#include <cstdio>

namespace teabench {

LayerReport
assembleReport(const PhaseResult &traced,
               const std::vector<InputCost> &costs, const WireFacts &wire,
               const GrowthFacts &growth, bool remote)
{
    // Sums over the traced phase's successful ops, each op charged its
    // input's probe figures.
    double n = 0, nRec = 0, swaps = 0;
    double encode = 0, frame = 0, consume = 0;
    double decodeSent = 0, decodeDelta = 0, decodeElided = 0;
    double job = 0, kernel = 0, kernelRef = 0, ingest = 0, finish = 0;
    double records = 0, elided = 0, transitions = 0, hits = 0, exits = 0;
    double splitDecode = 0, splitKernel = 0;
    for (const OpSample &op : traced.ops) {
        if (!op.ok || op.input >= costs.size())
            continue;
        const InputCost &c = costs[op.input];
        n += 1;
        splitDecode += static_cast<double>(op.decodeNs);
        splitKernel += static_cast<double>(op.kernelNs);
        encode += c.encodeNs;
        frame += c.frameDecodeNs;
        consume += c.consumeNs;
        if (op.kind == OpKind::Record) {
            nRec += 1;
            swaps += static_cast<double>(op.swaps);
            ingest += c.ingestNs;
            finish += c.finishNs;
            continue;
        }
        decodeSent += c.decodeSentNs;
        decodeDelta += c.decodeDeltaNs;
        decodeElided += c.decodeElidedNs;
        job += c.jobNs;
        kernel += c.kernelNs;
        kernelRef += c.kernelRefNs;
        records += static_cast<double>(c.records);
        elided += static_cast<double>(c.elidedRecords);
        transitions += static_cast<double>(c.transitions);
        hits += static_cast<double>(c.localCacheHits);
        exits += static_cast<double>(c.traceExits);
    }
    auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    LayerReport r;
    r.e2eMsPerOp = remote ? wire.rttMs : traced.meanMs();
    auto &m = r.metrics;
    m["net.client.encode_us"] = per(encode, n) / 1e3;
    m["net.frame.decode_us"] = per(frame, n) / 1e3;
    m["net.session.consume_ms"] = per(consume, n) / 1e6;
    m["net.wire_wait_ms"] =
        wire.rttMs - per(consume, n) / 1e6 - per(encode, n) / 1e6;
    m["net.wire_bytes_per_op"] = wire.bytesPerOp;
    m["net.ctx_switches_per_op"] = wire.ctxPerOp;
    m["net.dispatch_wait_ms"] = wire.dispatchMs;
    m["svc.decode_ns_per_rec.delta"] = per(decodeDelta, records);
    m["svc.decode_ns_per_rec.elided"] = per(decodeElided, records);
    m["svc.job_ns_per_transition"] = per(job, transitions);
    m["svc.job_other_pct"] = 100.0 * per(job - decodeSent - kernel, job);
    m["svc.elided_ratio"] = per(elided, records);
    m["tea.kernel_ns_per_transition"] = per(kernel, transitions);
    m["tea.kernel_ns_per_transition.reference"] = per(kernelRef, transitions);
    m["tea.local_cache_hit_ratio"] = per(hits, exits);
    m["tea.recompile_ms.incremental"] = growth.incrementalMs;
    m["tea.recompile_ms.full"] = growth.fullMs;
    m["rec.ingest_ns_per_transition"] = growth.ingestNsPerTransition;
    m["rec.finish_ms"] = growth.finishMs;
    m["rec.swaps_per_op"] = per(swaps, nRec);
    m["store.fault_in_us"] = growth.faultInUs;
    m["store.write_through_ms"] = growth.writeThroughMs;
    m["store.hit_ratio"] = wire.storeHitRatio;

    auto row = [&](const char *layer, double ns, bool clocked) {
        r.ledger.push_back({layer, per(ns, n) / 1e6, clocked});
    };
    if (remote) {
        double e2eNs = r.e2eMsPerOp * 1e6 * n;
        double dispatchNs = wire.dispatchMs * 1e6 * n;
        row("net.client.encode", encode, true);
        row("net.frame.decode", frame, true);
        row("svc.decode", decodeSent, true);
        row("tea.kernel", kernel, true);
        row("rec.ingest", ingest, true);
        row("rec.finish", finish, true);
        row("net.session.other",
            consume - frame - decodeSent - kernel - ingest - finish, false);
        row("net.dispatch_wait", dispatchNs, true);
        row("net.wire.other", e2eNs - encode - consume - dispatchNs, false);
    } else {
        // Locally each op's own decode and kernel split is on hand.
        double e2eNs = r.e2eMsPerOp * 1e6 * n;
        row("svc.decode", splitDecode, true);
        row("tea.kernel", splitKernel, true);
        row("svc.job_other", e2eNs - splitDecode - splitKernel, false);
    }
    double clocked = 0;
    for (const LedgerRow &lr : r.ledger)
        clocked += lr.clocked ? lr.msPerOp : 0.0;
    m["ledger.explained_pct"] = 100.0 * per(clocked, r.e2eMsPerOp);
    return r;
}

void
printLedger(const std::string &workload, const LayerReport &report)
{
    std::printf("ledger %s: %.4f ms per op end to end\n", workload.c_str(),
                report.e2eMsPerOp);
    const LedgerRow *top = nullptr;
    for (const LedgerRow &row : report.ledger) {
        if (row.msPerOp == 0)
            continue; // a layer this workload's ops never reach
        double pct = report.e2eMsPerOp > 0
                         ? 100.0 * row.msPerOp / report.e2eMsPerOp
                         : 0.0;
        std::printf("  %-22s %12.4f ms %7.2f%%  %s\n", row.layer.c_str(),
                    row.msPerOp, pct, row.clocked ? "clocked" : "residual");
        if (top == nullptr || row.msPerOp > top->msPerOp)
            top = &row;
    }
    double explained = report.metrics.at("ledger.explained_pct");
    if (top != nullptr)
        std::printf("  most time: %s (%.2f%%); clocked layers explain "
                    "%.2f%%, residual rows hold the other %.2f%%\n",
                    top->layer.c_str(),
                    report.e2eMsPerOp > 0
                        ? 100.0 * top->msPerOp / report.e2eMsPerOp
                        : 0.0,
                    explained, 100.0 - explained);
}

} // namespace teabench
