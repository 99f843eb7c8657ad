#include "testing/minimizer.h"

#include <algorithm>
#include <sstream>

namespace dcdatalog {
namespace testing_gen {
namespace {

std::vector<std::string> SplitLines(const std::string& program) {
  std::vector<std::string> lines;
  std::istringstream is(program);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::ostringstream os;
  for (const std::string& line : lines) os << line << "\n";
  return os.str();
}

FuzzCase WithProgram(const FuzzCase& base, std::vector<std::string> lines) {
  FuzzCase c = base;
  c.program = JoinLines(lines);
  c.outputs = HeadPredicates(c.program);
  return c;
}

FuzzCase WithEdges(const FuzzCase& base, const std::vector<Edge>& edges) {
  FuzzCase c = base;
  c.graph = Graph();
  for (const Edge& e : edges) c.graph.AddEdge(e.src, e.dst, e.weight);
  return c;
}

class Shrinker {
 public:
  Shrinker(FuzzCase best, uint32_t workers, const StillFailsFn& still_fails,
           const MinimizeOptions& options)
      : best_(std::move(best)),
        workers_(workers),
        still_fails_(still_fails),
        options_(options) {}

  MinimizeResult Run() {
    bool progress = true;
    while (progress && HasBudget()) {
      progress = false;
      progress |= DropRules();
      progress |= ShrinkEdb();
      progress |= ShrinkUpdates();
      progress |= LowerWorkers();
    }
    return MinimizeResult{std::move(best_), workers_, probes_};
  }

 private:
  bool HasBudget() const { return probes_ < options_.max_probes; }

  /// Probes a candidate up to kAttemptsPerCandidate times, stopping at the
  /// first failing run; on reproduction it becomes the new best.
  bool Try(const FuzzCase& candidate, uint32_t workers) {
    for (uint32_t attempt = 0; attempt < kAttemptsPerCandidate; ++attempt) {
      if (!HasBudget()) return false;
      ++probes_;
      if (still_fails_(candidate, workers)) {
        best_ = candidate;
        workers_ = workers;
        return true;
      }
    }
    return false;
  }

  bool DropRules() {
    bool progress = false;
    bool removed = true;
    while (removed && HasBudget()) {
      removed = false;
      std::vector<std::string> lines = SplitLines(best_.program);
      if (lines.size() <= 1) break;
      for (size_t i = lines.size(); i-- > 0;) {
        std::vector<std::string> fewer = lines;
        fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(i));
        if (Try(WithProgram(best_, std::move(fewer)), workers_)) {
          progress = removed = true;
          break;  // Restart over the shrunk rule list.
        }
        if (!HasBudget()) break;
      }
    }
    return progress;
  }

  bool ShrinkEdb() {
    bool progress = false;
    // Halving: drop the second half of the edge list while that reproduces.
    while (best_.graph.num_edges() >= 2 && HasBudget()) {
      std::vector<Edge> edges = best_.graph.edges();
      edges.resize(edges.size() / 2);
      if (!Try(WithEdges(best_, edges), workers_)) break;
      progress = true;
    }
    // Tail: once small, drop single edges.
    if (best_.graph.num_edges() < 16) {
      bool removed = true;
      while (removed && HasBudget()) {
        removed = false;
        const std::vector<Edge> edges = best_.graph.edges();
        for (size_t i = edges.size(); i-- > 0;) {
          std::vector<Edge> fewer = edges;
          fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(i));
          if (Try(WithEdges(best_, fewer), workers_)) {
            progress = removed = true;
            break;
          }
          if (!HasBudget()) break;
        }
      }
    }
    return progress;
  }

  /// Update-script passes: drop whole batches first (a delete-free prefix
  /// often reproduces alone), then halve each surviving batch's op list,
  /// then drop single ops. Empty batches are kept droppable but legal —
  /// a failure that needs an empty batch in the stream is itself a find.
  bool ShrinkUpdates() {
    bool progress = false;
    // Drop single batches.
    bool removed = true;
    while (removed && HasBudget()) {
      removed = false;
      const auto& batches = best_.updates.batches;
      for (size_t i = batches.size(); i-- > 0;) {
        FuzzCase candidate = best_;
        candidate.updates.batches.erase(candidate.updates.batches.begin() +
                                        static_cast<ptrdiff_t>(i));
        if (Try(candidate, workers_)) {
          progress = removed = true;
          break;
        }
        if (!HasBudget()) break;
      }
    }
    // Halve op lists within each batch.
    for (size_t b = 0; b < best_.updates.batches.size() && HasBudget(); ++b) {
      while (best_.updates.batches[b].ops.size() >= 2 && HasBudget()) {
        FuzzCase candidate = best_;
        auto& ops = candidate.updates.batches[b].ops;
        ops.resize(ops.size() / 2);
        if (!Try(candidate, workers_)) break;
        progress = true;
      }
    }
    // Tail: drop single ops anywhere.
    removed = true;
    while (removed && HasBudget()) {
      removed = false;
      for (size_t b = 0; b < best_.updates.batches.size() && !removed; ++b) {
        const auto& ops = best_.updates.batches[b].ops;
        for (size_t i = ops.size(); i-- > 0;) {
          FuzzCase candidate = best_;
          auto& cops = candidate.updates.batches[b].ops;
          cops.erase(cops.begin() + static_cast<ptrdiff_t>(i));
          if (Try(candidate, workers_)) {
            progress = removed = true;
            break;
          }
          if (!HasBudget()) break;
        }
      }
    }
    return progress;
  }

  bool LowerWorkers() {
    bool progress = false;
    while (workers_ > 1 && HasBudget()) {
      if (!Try(best_, workers_ - 1)) break;
      progress = true;
    }
    return progress;
  }

  FuzzCase best_;
  uint32_t workers_;
  const StillFailsFn& still_fails_;
  const MinimizeOptions& options_;
  uint32_t probes_ = 0;
};

}  // namespace

std::vector<std::string> HeadPredicates(const std::string& program) {
  std::vector<std::string> heads;
  for (const std::string& line : SplitLines(program)) {
    const size_t paren = line.find('(');
    if (paren == std::string::npos) continue;
    std::string name = line.substr(0, paren);
    // Trim surrounding whitespace.
    const size_t b = name.find_first_not_of(" \t");
    const size_t e = name.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    name = name.substr(b, e - b + 1);
    if (std::find(heads.begin(), heads.end(), name) == heads.end()) {
      heads.push_back(name);
    }
  }
  return heads;
}

MinimizeResult Minimize(const FuzzCase& failing, uint32_t num_workers,
                        const StillFailsFn& still_fails,
                        const MinimizeOptions& options) {
  Shrinker shrinker(failing, num_workers, still_fails, options);
  return shrinker.Run();
}

}  // namespace testing_gen
}  // namespace dcdatalog
