// observations.h — analysis-side view of a probe's measurement history.
//
// The analysis pipeline is deliberately decoupled from the generator: it
// consumes plain observation series (what the public Atlas dataset provides)
// and never touches simulator ground truth. ProbeObservations is that
// boundary type; io/ can also populate it from CSV for real data.
#pragma once

#include <cstdint>
#include <vector>

#include "atlas/echo.h"
#include "core/intern.h"
#include "netaddr/ipv4.h"
#include "netaddr/ipv6.h"

namespace dynamips::core {

using simnet::Hour;

/// One v4 echo observation.
struct Obs4 {
  Hour hour = 0;
  net::IPv4Address addr;     ///< publicly visible address (X-Client-IP)
  bool src_public = false;   ///< src_addr was global (atypical, no NAT)
};

/// One v6 echo observation.
struct Obs6 {
  Hour hour = 0;
  net::IPv6Address addr;       ///< publicly visible address
  bool src_matches = true;     ///< src_addr equalled X-Client-IP (typical)
};

/// All observations of one probe, hour-ordered per family (repeated hours
/// allowed). Every producer (from_series, the CSV and columnar readers)
/// emits that order; the sanitizer checks it with one O(n) scan per family
/// and stable-sorts a family that fails the scan, so hand-built input is
/// still valid and same-hour observations of one family keep their input
/// order. Tags are interned ids (core::tag_pool()), not strings — a probe
/// never copies tag text on its way through the pipeline.
struct ProbeObservations {
  std::uint32_t probe_id = 0;
  std::vector<TagId> tags;
  std::vector<Obs4> v4;
  std::vector<Obs6> v6;
};

/// Convert a raw echo series into the analysis-side representation.
ProbeObservations from_series(const atlas::ProbeSeries& series);

}  // namespace dynamips::core
