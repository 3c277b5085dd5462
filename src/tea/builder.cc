#include "tea/builder.hh"

namespace tea {

Tea
buildTea(const TraceSet &traces)
{
    Tea tea; // lines 1-2: {NTE}, no transitions
    for (const Trace &t : traces.all())
        tea.appendTrace(t);
    tea.validate(traces);
    return tea;
}

} // namespace tea
