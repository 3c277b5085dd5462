/**
 * @file
 * Table 1 — "Size Savings with TEA".
 *
 * For every workload and each of the paper's three selection strategies
 * (MRET, CTT, TT), record traces with the DBT and report the bytes
 * needed to represent them by code replication (DBT) versus as a TEA.
 * The paper reports KB and a ~77-79% geomean saving for all three
 * strategies; the invariant under test is the savings band, not the
 * absolute sizes.
 *
 * A second table holds the forms a server actually keeps: the
 * compiled lookup structures (CompiledTea::footprintBytes) and the
 * `.teac` image (serialize().size()), each beside the `.tea` as a
 * fraction of the replicated bytes, with geomean rows.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::bench;

int
main(int argc, char **argv)
{
    InputSize size = sizeFromArgs(argc, argv);
    const std::vector<std::string> selectors = {"mret", "ctt", "tt"};

    TextTable table({"benchmark", "MRET DBT", "MRET TEA", "MRET sav",
                     "CTT DBT", "CTT TEA", "CTT sav", "TT DBT", "TT TEA",
                     "TT sav"});
    std::vector<std::vector<double>> savings(selectors.size());
    TextTable served({"benchmark", "MRET .tea", "MRET Compiled",
                      "MRET .teac", "CTT .tea", "CTT Compiled", "CTT .teac",
                      "TT .tea", "TT Compiled", "TT .teac"});
    // Per selector: .tea, Compiled and .teac bytes over the DBT's.
    std::vector<std::vector<double>> fractions(3 * selectors.size());

    std::printf("Table 1: trace representation size, DBT (replication) "
                "vs TEA [bytes]\n");
    for (const std::string &name : Workloads::names()) {
        Workload w = Workloads::build(name, size);
        std::vector<std::string> row = {w.specName + " (" + w.name + ")"};
        std::vector<std::string> servedRow = {row[0]};
        for (size_t s = 0; s < selectors.size(); ++s) {
            MemoryCell cell = memoryExperiment(w, selectors[s]);
            row.push_back(TextTable::num(
                static_cast<uint64_t>(cell.dbtBytes)));
            row.push_back(TextTable::num(
                static_cast<uint64_t>(cell.teaBytes)));
            row.push_back(TextTable::pct(cell.savings()));
            savings[s].push_back(cell.savings());
            size_t forms[] = {cell.teaBytes, cell.compiledBytes,
                              cell.teacBytes};
            for (size_t f = 0; f < 3; ++f) {
                double frac = static_cast<double>(forms[f]) /
                              static_cast<double>(cell.dbtBytes);
                servedRow.push_back(TextTable::num(frac, 3));
                fractions[3 * s + f].push_back(frac);
            }
        }
        table.addRow(row);
        served.addRow(servedRow);
    }
    table.addSeparator();
    table.addRow({"GeoMean", "", "", TextTable::pct(geomean(savings[0])),
                  "", "", TextTable::pct(geomean(savings[1])), "", "",
                  TextTable::pct(geomean(savings[2]))});
    std::fputs(table.render().c_str(), stdout);

    std::printf("\npaper: geomean savings MRET 77%%, CTT 79%%, TT 79%% "
                "(all rows 73-86%%)\n");

    served.addSeparator();
    std::vector<std::string> geo = {"GeoMean"};
    for (const std::vector<double> &f : fractions)
        geo.push_back(TextTable::num(geomean(f), 3));
    served.addRow(geo);
    std::printf("\nServed forms as a fraction of the DBT's replicated "
                "bytes (1.0 saves nothing)\n");
    std::fputs(served.render().c_str(), stdout);
    return 0;
}
