// Incremental-evaluation edge cases: streaming EDB update batches applied
// to a retained fixpoint, each checked against a from-scratch oracle run
// over the same (post-update) EDB. The broad randomized coverage lives in
// the update-sequence fuzzer (dcd_fuzz --updates); these are the handwritten
// corners: empty batches, self-cancelling batches, deletes of absent rows,
// DRed over-delete/re-derive across a disconnected component, sessions that
// start from an empty EDB, and duplicate inserts under count/sum.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/dcdatalog.h"
#include "core/reference.h"
#include "datalog/parser.h"
#include "graph/generators.h"
#include "storage/updates.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::ApproxEqualLastDouble;
using testing_util::RowSet;

constexpr char kTc[] =
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";

EngineOptions Opts(uint32_t workers = 2) {
  EngineOptions o;
  o.num_workers = workers;
  return o;
}

/// Parses a one-batch update script ("+ rel v..." / "- rel v..." lines).
UpdateBatch Batch(const std::string& text) {
  auto script = ParseUpdateScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script.value().batches.size(), 1u);
  return script.value().batches[0];
}

/// Re-runs `program` from scratch over `db`'s current EDB relations and
/// checks every output predicate matches the incrementally maintained one.
void ExpectMatchesOracle(DCDatalog& db, const std::string& program,
                         const std::vector<std::string>& edb,
                         const std::vector<std::string>& outputs,
                         bool last_col_double = false) {
  DCDatalog oracle(db.options());
  for (const std::string& name : edb) {
    Relation copy = *db.ResultFor(name);
    oracle.catalog().Put(std::move(copy));
  }
  ASSERT_TRUE(oracle.LoadProgramText(program).ok());
  auto run = oracle.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const std::string& out : outputs) {
    ASSERT_NE(db.ResultFor(out), nullptr) << out;
    ASSERT_NE(oracle.ResultFor(out), nullptr) << out;
    if (last_col_double) {
      EXPECT_TRUE(ApproxEqualLastDouble(*db.ResultFor(out),
                                        *oracle.ResultFor(out), 1e-9))
          << out;
    } else {
      EXPECT_EQ(RowSet(*db.ResultFor(out)), RowSet(*oracle.ResultFor(out)))
          << out;
    }
  }
}

TEST(IncrementalTest, EmptyBatchIsANoOp) {
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 10; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  const auto before = RowSet(*db.ResultFor("tc"));

  auto stats = db.ApplyUpdates(UpdateBatch{});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().update_batches, 1u);
  EXPECT_EQ(stats.value().delta_tuples_in, 0u);
  EXPECT_EQ(RowSet(*db.ResultFor("tc")), before);
}

TEST(IncrementalTest, InsertThenDeleteSameEdgeInOneBatchCancels) {
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 8; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  const auto before = RowSet(*db.ResultFor("tc"));

  // The inserted edge is netted out by its own delete before any rule runs.
  auto stats = db.ApplyUpdates(Batch("+ arc 100 200\n- arc 100 200\n"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().delta_tuples_in, 0u);
  EXPECT_EQ(RowSet(*db.ResultFor("tc")), before);
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
}

TEST(IncrementalTest, DeleteOfNeverInsertedEdgeIsANoOp) {
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 8; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  const auto before = RowSet(*db.ResultFor("tc"));

  auto stats = db.ApplyUpdates(Batch("- arc 999 1000\n"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().delta_tuples_in, 0u);
  EXPECT_EQ(RowSet(*db.ResultFor("tc")), before);
}

TEST(IncrementalTest, DeleteDisconnectsComponentDredRederives) {
  // Two chains joined by a bridge; alternative path 4->14 keeps some
  // cross-component reachability alive, so DRed must over-delete through
  // the bridge's closure and then re-derive the survivors.
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 5; ++i) g.AddEdge(i, i + 1);       // 0..5
  for (uint64_t i = 10; i < 15; ++i) g.AddEdge(i, i + 1);     // 10..15
  g.AddEdge(5, 10);                                           // bridge
  g.AddEdge(4, 14);                                           // alt path
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());

  auto stats = db.ApplyUpdates(Batch("- arc 5 10\n"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // 4->15 survives via the alternative edge; 0->10 must be gone.
  const auto tc = RowSet(*db.ResultFor("tc"));
  EXPECT_TRUE(tc.count({4, 15}));
  EXPECT_FALSE(tc.count({0, 10}));
  EXPECT_GT(stats.value().rederived_tuples, 0u);
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
}

TEST(IncrementalTest, UpdatesOnEmptyInitialEdb) {
  DCDatalog db(Opts());
  ASSERT_TRUE(db.CreateRelation("arc", Schema::Ints(2)).ok());
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto begin = db.BeginIncremental();
  ASSERT_TRUE(begin.ok()) << begin.status().ToString();
  EXPECT_EQ(db.ResultFor("tc")->size(), 0u);

  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 0 1\n+ arc 1 2\n")).ok());
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
  EXPECT_EQ(RowSet(*db.ResultFor("tc")),
            (std::set<std::vector<uint64_t>>{{0, 1}, {1, 2}, {0, 2}}));

  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 2 0\n")).ok());  // close the cycle
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
  EXPECT_EQ(db.ResultFor("tc")->size(), 9u);
}

TEST(IncrementalTest, DuplicateInsertsUnderCountAndSum) {
  // Set semantics: re-inserting a present tuple must not disturb count/sum
  // aggregates downstream.
  constexpr char kAgg[] =
      "deg(X, count<Y>) :- arc(X, Y).\n"
      "wsum(X, sum<(Y, K)>) :- arc(X, Y), K = 1.5.\n";
  DCDatalog db(Opts());
  Graph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kAgg).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());

  // Duplicate of (0,1) nets to nothing; (2,3) is genuinely new.
  auto stats = db.ApplyUpdates(Batch("+ arc 0 1\n+ arc 2 3\n+ arc 0 1\n"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().delta_tuples_in, 1u);
  ExpectMatchesOracle(db, kAgg, {"arc"}, {"deg"});
  ExpectMatchesOracle(db, kAgg, {"arc"}, {"wsum"}, /*last_col_double=*/true);

  // And the duplicate alone: fixpoint must be bit-identical to before.
  const auto deg_before = RowSet(*db.ResultFor("deg"));
  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 1 2\n")).ok());
  EXPECT_EQ(RowSet(*db.ResultFor("deg")), deg_before);
}

TEST(IncrementalTest, MixedBatchesAcrossBackends) {
  // One mixed insert+delete sequence driven through every merge-index
  // backend, oracle-checked per batch.
  const std::vector<std::string> scripts = {
      "+ arc 3 17\n+ arc 17 18\n",
      "- arc 3 17\n+ arc 18 3\n",
      "- arc 0 1\n- arc 18 3\n",
  };
  for (MergeIndexBackend backend :
       {MergeIndexBackend::kFlat, MergeIndexBackend::kBtree}) {
    EngineOptions opts = Opts(3);
    opts.merge_index_backend = backend;
    DCDatalog db(opts);
    Graph g = GenerateGnp(24, 0.08, 5);
    g.AddEdge(0, 1);
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kTc).ok());
    ASSERT_TRUE(db.BeginIncremental().ok());
    for (const std::string& script : scripts) {
      auto stats = db.ApplyUpdates(Batch(script));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
    }
  }
}

TEST(IncrementalTest, SupportCountingDeleteCrossesBatchBoundary) {
  // A non-recursive, aggregate-free SCC keeps per-row support counts, so a
  // delete batch takes the counting path: every removed arc row is driven
  // through the arc-driven update rule in one batch runner, decrementing
  // the support of each hop row it derived. 400 removed rows span two
  // 256-lane driving batches. hop(X, 2000) has two derivations and loses
  // one; hop(X, 4000 + X % 10) has one and dies.
  constexpr char kHop[] = "hop(X, Z) :- arc(X, Y), link(Y, Z).\n";
  DCDatalog db(Opts(3));
  Graph arc;
  for (uint64_t x = 0; x < 400; ++x) {
    arc.AddEdge(x, 1000 + x % 10);
    arc.AddEdge(x, 1000 + (x + 1) % 10);
  }
  Graph link;
  for (uint64_t y = 1000; y < 1010; ++y) {
    link.AddEdge(y, 2000);
    link.AddEdge(y, 3000 + y);
  }
  db.AddGraph(arc, "arc");
  db.AddGraph(link, "link");
  ASSERT_TRUE(db.LoadProgramText(kHop).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());

  std::string script;
  for (uint64_t x = 0; x < 400; ++x) {
    script += "- arc " + std::to_string(x) + " " +
              std::to_string(1000 + x % 10) + "\n";
  }
  auto stats = db.ApplyUpdates(Batch(script));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().delta_tuples_in, 400u);
  // DRed would over-delete every hop(X, 2000) and re-derive it; counting
  // re-derives nothing.
  EXPECT_EQ(stats.value().rederived_tuples, 0u);

  auto ref = ReferenceEvaluate(*db.program(), db.catalog());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const auto want = RowSet(ref.value().at("hop"));
  EXPECT_EQ(RowSet(*db.ResultFor("hop")), want);
  EXPECT_EQ(want.size(), 800u);  // 400 × {2000, 4000 + (X + 1) % 10}.
  EXPECT_EQ(want.count({0, 2000}), 1u);
  EXPECT_EQ(want.count({0, 4000}), 0u);
}

TEST(IncrementalTest, ApplyUpdatesRequiresBeginIncremental) {
  DCDatalog db(Opts());
  Graph g;
  g.AddEdge(0, 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  EXPECT_FALSE(db.ApplyUpdates(Batch("+ arc 1 2\n")).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  EXPECT_TRUE(db.incremental_active());
  // Updating a derived relation is rejected.
  EXPECT_FALSE(db.ApplyUpdates(Batch("+ tc 1 2\n")).ok());
  // Loading a new program drops the session.
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  EXPECT_FALSE(db.incremental_active());
}

TEST(IncrementalTest, RunAfterBeginIncrementalTearsDownSession) {
  // Engine-level contract: Run()/RunPlan() on an engine with a live
  // incremental session must tear the session down deterministically — the
  // run replaces the catalog relations the retained replicas and
  // watermarks describe, so resuming the old session would read stale
  // state. The bug this pins: inc_ surviving Run() and a later
  // ApplyUpdates re-driving from watermarks that no longer match the
  // catalog.
  Catalog catalog;
  StringDict dict;
  Graph g;
  for (uint64_t i = 0; i < 8; ++i) g.AddEdge(i, i + 1);
  catalog.Put(g.ToArcRelation("arc"));
  auto program = ParseProgram(kTc, &dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  Engine engine(&catalog, Opts().Resolved());
  ASSERT_TRUE(engine.BeginIncremental(program.value()).ok());
  ASSERT_TRUE(engine.incremental_active());
  const auto before = RowSet(*catalog.Find("tc"));

  // A from-scratch Run over the same program: results identical, session
  // gone.
  auto rerun = engine.Run(program.value());
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(engine.incremental_active());
  EXPECT_EQ(RowSet(*catalog.Find("tc")), before);

  // Updates after the invalidation are rejected, not silently misapplied.
  UpdateBatch batch = Batch("+ arc 8 9\n");
  auto resolved = ResolveUpdateBatch(batch, catalog, &dict);
  ASSERT_TRUE(resolved.ok());
  EXPECT_FALSE(engine.ApplyUpdates(resolved.value()).ok());

  // The engine is not wedged: a fresh session over the post-run catalog
  // works and maintains correctly.
  ASSERT_TRUE(engine.BeginIncremental(program.value()).ok());
  auto inc = engine.ApplyUpdates(resolved.value());
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_TRUE(RowSet(*catalog.Find("tc")).count({0, 9}) > 0);
}

TEST(IncrementalTest, ReRunAfterUpdatesMatchesOracle) {
  // DCDatalog-level: BeginIncremental → ApplyUpdates → Run() from scratch.
  // The re-run must see the post-update EDB and agree with an independent
  // oracle, and the dropped session must not leak into the re-run's
  // results.
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 12; ++i) g.AddEdge(i, (i * 5 + 1) % 12);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 3 7\n- arc 0 1\n")).ok());

  auto rerun = db.Run();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(db.incremental_active());
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});

  // And the instance can open another session afterwards.
  ASSERT_TRUE(db.BeginIncremental().ok());
  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 7 0\n")).ok());
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
}

}  // namespace
}  // namespace dcdatalog
