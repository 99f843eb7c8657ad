#include "oracle.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>

namespace perfbench {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string ReadEdgeFile(const std::string& path, bool weighted,
                         std::vector<Edge>* edges) {
  std::ifstream in(path);
  if (!in) return "cannot open " + path;
  Edge e;
  while (in >> e.src >> e.dst) {
    if (weighted && !(in >> e.weight)) return "missing weight in " + path;
    edges->push_back(e);
  }
  if (!in.eof()) return "malformed edge file " + path;
  return "";
}

std::string ReadEdgeScript(const std::string& path, bool weighted,
                           std::vector<EdgeBatch>* batches) {
  std::ifstream in(path);
  if (!in) return "cannot open " + path;
  batches->emplace_back();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "---") {
      batches->emplace_back();
      continue;
    }
    std::istringstream fields(line);
    std::string sign;
    std::string relation;
    EdgeOp op;
    fields >> sign >> relation >> op.edge.src >> op.edge.dst;
    if (weighted) fields >> op.edge.weight;
    if (!fields || (sign != "+" && sign != "-")) {
      return "malformed update line: " + line;
    }
    op.insert = sign == "+";
    batches->back().push_back(op);
  }
  return "";
}

Graph::Graph(uint64_t n, const std::vector<Edge>& edges) : out_(n) {
  for (const Edge& e : edges) Insert(e);
}

void Graph::Insert(const Edge& e) {
  const uint64_t n = out_.size();
  if (e.src < 0 || e.dst < 0 || static_cast<uint64_t>(e.src) >= n ||
      static_cast<uint64_t>(e.dst) >= n) {
    return;
  }
  std::vector<Arc>& arcs = out_[e.src];
  for (const Arc& a : arcs) {
    if (a.dst == e.dst && a.weight == e.weight) return;
  }
  arcs.push_back(Arc{e.dst, e.weight});
}

void Graph::Erase(const Edge& e) {
  if (e.src < 0 || static_cast<uint64_t>(e.src) >= out_.size()) return;
  std::vector<Arc>& arcs = out_[e.src];
  for (size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].dst == e.dst && arcs[i].weight == e.weight) {
      arcs[i] = arcs.back();
      arcs.pop_back();
      return;
    }
  }
}

void Graph::Apply(const EdgeBatch& batch) {
  for (const EdgeOp& op : batch) {
    if (op.insert) {
      Insert(op.edge);
    } else {
      Erase(op.edge);
    }
  }
}

void ClosureDigest::AddRow(int64_t x, int64_t y) {
  const uint64_t n = count.size();
  if (x < 0 || y < 0 || static_cast<uint64_t>(x) >= n ||
      static_cast<uint64_t>(y) >= n) {
    ++rows_out_of_range;
    return;
  }
  ++count[x];
  sum[x] += Mix(static_cast<uint64_t>(y));
}

ClosureDigest ReachDigest(const Graph& graph) {
  const uint64_t n = graph.vertices();
  ClosureDigest digest(n);
  std::vector<uint64_t> seen(n, 0);  // Stamp x + 1 marks "reached from x".
  std::vector<int64_t> stack;
  for (uint64_t x = 0; x < n; ++x) {
    const uint64_t stamp = x + 1;
    auto push_successors = [&](uint64_t v) {
      for (const Graph::Arc& a : graph.Out(v)) {
        if (seen[a.dst] != stamp) stack.push_back(a.dst);
      }
    };
    push_successors(x);
    while (!stack.empty()) {
      const int64_t v = stack.back();
      stack.pop_back();
      if (seen[v] == stamp) continue;
      seen[v] = stamp;
      digest.AddRow(static_cast<int64_t>(x), v);
      push_successors(static_cast<uint64_t>(v));
    }
  }
  return digest;
}

std::string CompareClosure(const ClosureDigest& expected,
                           const ClosureDigest& observed) {
  if (observed.rows_out_of_range != 0) {
    return std::to_string(observed.rows_out_of_range) +
           " rows name a vertex outside the graph";
  }
  if (expected.count.size() != observed.count.size()) {
    return "vertex count differs";
  }
  for (uint64_t x = 0; x < expected.count.size(); ++x) {
    if (expected.count[x] != observed.count[x]) {
      return "vertex " + std::to_string(x) + " reaches " +
             std::to_string(expected.count[x]) + " vertices, result has " +
             std::to_string(observed.count[x]) + " rows";
    }
    if (expected.sum[x] != observed.sum[x]) {
      return "vertex " + std::to_string(x) + ": result rows differ from its " +
             "reachable set";
    }
  }
  return "";
}

std::vector<int64_t> ShortestDistances(const Graph& graph, int64_t source) {
  const uint64_t n = graph.vertices();
  std::vector<int64_t> dist(n, kUnreachable);
  if (source < 0 || static_cast<uint64_t>(source) >= n) return dist;
  using Item = std::pair<int64_t, int64_t>;  // (distance, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;
    for (const Graph::Arc& a : graph.Out(v)) {
      const int64_t nd = d + a.weight;
      if (nd < dist[a.dst]) {
        dist[a.dst] = nd;
        heap.emplace(nd, a.dst);
      }
    }
  }
  return dist;
}

std::string CheckSssp(const std::vector<int64_t>& dist,
                      const SsspObservation& obs) {
  const uint64_t reached = static_cast<uint64_t>(
      std::count_if(dist.begin(), dist.end(),
                    [](int64_t d) { return d != kUnreachable; }));
  if (obs.rows != reached) {
    return "source " + std::to_string(obs.source) + " reaches " +
           std::to_string(reached) + " vertices, result has " +
           std::to_string(obs.rows) + " rows";
  }
  if (obs.dumped.size() > obs.rows) return "dump holds more rows than result";
  for (const auto& [v, d] : obs.dumped) {
    if (v < 0 || static_cast<uint64_t>(v) >= dist.size() ||
        dist[v] != d) {
      return "source " + std::to_string(obs.source) + ": vertex " +
             std::to_string(v) + " has distance " + std::to_string(d) +
             ", expected " +
             (v >= 0 && static_cast<uint64_t>(v) < dist.size() &&
                      dist[v] != kUnreachable
                  ? std::to_string(dist[v])
                  : std::string("unreachable"));
    }
  }
  return "";
}

}  // namespace perfbench
