// Expected results for the benchmark's workloads, computed from the input
// files alone. Nothing here includes an engine header, so a fault in the
// engine cannot also hide in its own checker.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64's finalizer: a bijective 64-bit mix, so a per-vertex sum of
/// Mix(y) over a closure row set changes when any one row is dropped,
/// added or altered.
uint64_t Mix(uint64_t x);

struct Edge {
  int64_t src = 0;
  int64_t dst = 0;
  int64_t weight = 1;
};

/// Reads "src dst" (or "src dst weight" when `weighted`) lines. Returns an
/// error message, or "" on success.
std::string ReadEdgeFile(const std::string& path, bool weighted,
                         std::vector<Edge>* edges);

/// One update op as written in an update script ("+ rel a b [w]").
struct EdgeOp {
  bool insert = true;
  Edge edge;
};
using EdgeBatch = std::vector<EdgeOp>;

/// Reads an update script (one op per line, batches separated by "---").
std::string ReadEdgeScript(const std::string& path, bool weighted,
                           std::vector<EdgeBatch>* batches);

/// A directed graph over vertices [0, n) holding a set of (src, dst,
/// weight) edges, with the engine's update semantics: inserting a present
/// edge and erasing an absent one are no-ops, and ops apply in order. Edges
/// naming a vertex outside [0, n) are ignored.
class Graph {
 public:
  struct Arc {
    int64_t dst = 0;
    int64_t weight = 1;
  };

  Graph(uint64_t n, const std::vector<Edge>& edges);

  uint64_t vertices() const { return out_.size(); }
  const std::vector<Arc>& Out(uint64_t v) const { return out_[v]; }

  void Insert(const Edge& e);
  void Erase(const Edge& e);
  void Apply(const EdgeBatch& batch);

 private:
  std::vector<std::vector<Arc>> out_;
};

/// Per-source digest of a transitive closure over vertices [0, n): how many
/// rows (x, _) there are, and the wrapping sum of Mix(y) over them.
struct ClosureDigest {
  std::vector<uint64_t> count;
  std::vector<uint64_t> sum;
  uint64_t rows_out_of_range = 0;  // Rows naming a vertex outside [0, n).

  explicit ClosureDigest(uint64_t n = 0) : count(n, 0), sum(n, 0) {}
  void AddRow(int64_t x, int64_t y);
};

/// The closure {(x, y) : y is reachable from x by a path of one or more
/// edges} — what tc.dl derives — digested per source.
ClosureDigest ReachDigest(const Graph& graph);

/// "" when `observed` equals `expected`, else the first difference.
std::string CompareClosure(const ClosureDigest& expected,
                           const ClosureDigest& observed);

constexpr int64_t kUnreachable = INT64_MAX;

/// Dijkstra over non-negative weights: distance from `source` to every
/// vertex that it reaches by zero or more edges.
std::vector<int64_t> ShortestDistances(const Graph& graph, int64_t source);

/// One /query response of the SSSP workload: the row count the server
/// reported and the (vertex, distance) rows of its dump.
struct SsspObservation {
  int64_t source = 0;
  uint64_t version = 0;
  uint64_t rows = 0;
  std::vector<std::pair<int64_t, int64_t>> dumped;
};

/// "" when the observation agrees with `dist`: the row count equals the
/// number of reached vertices and every dumped row carries its vertex's
/// exact distance. Else the first disagreement.
std::string CheckSssp(const std::vector<int64_t>& dist,
                      const SsspObservation& obs);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
