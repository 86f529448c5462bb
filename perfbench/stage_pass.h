// The traced run's offline stage pass: the run's own query wires (and, on
// hierarchy-proxy, the proxy's rewritten sources) go once through
// AuthServerEngine::HandleWire (HandleStream on TCP) whole, and once
// through the public functions HandleWire is built from, each call timed
// as a span. The two outputs must be byte-identical.
#ifndef LDPLAYER_PERFBENCH_STAGE_PASS_H
#define LDPLAYER_PERFBENCH_STAGE_PASS_H

#include <cstdint>
#include <vector>

#include "measure.h"
#include "trace/record.h"
#include "workloads.h"

namespace ldp::perfbench {

// Medians per call, in ns, over the sampled queries that ran the stage
// (0 when no sampled query did, e.g. the cache stages on TCP).
struct StageMedians {
  double parse_wire = 0;
  double view_match = 0;
  double cache_probe = 0;
  double decode = 0;
  double find_zone = 0;
  double build_response = 0;
  double encode = 0;
  double handle_wire = 0;
  // HandleWire's time not covered by the stage calls for the same query.
  double engine_self = 0;
};

struct StagePassResult {
  StageMedians medians;
  uint64_t sampled = 0;     // queries run through both paths
  uint64_t mismatches = 0;  // stage output differed from HandleWire's
  uint64_t no_zone = 0;     // stage pass found no zone (cannot compare)
  std::vector<Span> spans;  // per sampled query: query > {whole, stages}
};

// Runs every record through HandleWire in trace order (so the cache
// warms as it did live), and the stage path on about `max_sampled`
// evenly spaced records.
StagePassResult RunStagePass(const WorkloadSpec& spec, const ServedZones& zones,
                             const std::vector<trace::QueryRecord>& records,
                             size_t max_sampled);

}  // namespace ldp::perfbench

#endif  // LDPLAYER_PERFBENCH_STAGE_PASS_H
