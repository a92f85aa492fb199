// Seeded-bad fixture for E3L017 (missing-span): handleRequest here is
// registered as a phase-level entry point in the rule's table, and it
// opens its TraceSpan only when tracing is requested, so an untraced
// request leaves no span behind. The linter must exit nonzero when
// pointed at this file.

#include "obs/trace.hh"

int
handleRequest(int requestId, bool traced)
{
    if (traced) {
        e3::obs::TraceSpan span("serve.request"); // E3L017: branch only
        return requestId * 2;
    }
    return requestId * 2;
}
