// The three smpxbench workloads: their seeded inputs, query sets and the
// time split between the drivers (see README.md for why each exists).

#ifndef SMPXBENCH_WORKLOADS_H_
#define SMPXBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace smpxbench {

struct Query {
  std::string id;
  std::string paths;  ///< projection paths, space separated
};

struct WorkloadSpec {
  std::string name;
  bool medline = false;            ///< MEDLINE DTD, else XMark
  std::vector<std::string> docs;   ///< generated document files
  std::vector<Query> queries;      ///< everything compiled and run
  /// Queries whose serial output must equal baselines::SaxProjector on the
  /// smallest document.
  std::vector<Query> sax_checked;
  /// Documents (by index) whose every query is checked product-vs-single.
  size_t product_check_docs = 1;

  /// Share of the measured seconds for each driver phase (sum 1).
  double engine_share = 0, batch_share = 0, serve_share = 0;

  // Serve phase.
  /// (document, query) pairs the server preloads and serves.
  std::vector<std::pair<size_t, size_t>> serve_pairs;
  uint64_t index_granularity = 1;  ///< server cache index granularity
  double project_rate = 0;  ///< whole-document projects/s at the reference
};

/// Generates the inputs of `name` from `seed` under `dir` and returns the
/// spec. `smoke` shrinks every size for a quick end-to-end pass. Fails
/// (empty name) on an unknown workload or an I/O error, with `error` set.
WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed,
                          const std::string& dir, bool smoke,
                          std::string* error);

}  // namespace smpxbench

#endif  // SMPXBENCH_WORKLOADS_H_
