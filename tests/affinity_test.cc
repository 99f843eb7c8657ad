// Death tests for the debug-mode thread-ownership checker
// (src/common/affinity.h): the single-writer disciplines the engine's
// lock-free design rests on must abort deterministically when violated,
// naming the role and both thread ids. Compiled against a release build
// (DCD_AFFINITY_ENABLED == 0) every test skips — the guards do not exist
// there, by design.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/affinity.h"
#include "concurrent/spsc_queue.h"
#include "concurrent/termination.h"
#include "runtime/recursive_table.h"
#include "storage/tuple.h"

namespace dcdatalog {
namespace {

#if DCD_AFFINITY_ENABLED

// Forked death tests + threads in the parent require the threadsafe style
// (the clone re-runs the whole test up to the death statement).
class AffinityDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }

  static void RunOnOtherThread(void (*fn)(void*), void* arg) {
    std::thread t(fn, arg);
    t.join();
  }
};

AggSpec PlainSpec(uint32_t arity) {
  AggSpec s;
  s.func = AggFunc::kNone;
  s.stored_arity = arity;
  s.group_arity = arity;
  s.wire_arity = arity;
  return s;
}

TEST_F(AffinityDeathTest, WrongThreadSpscPushAborts) {
  SpscQueue<int> q(8);
  ASSERT_TRUE(q.TryPush(1));  // Main thread claims the producer role.
  EXPECT_DEATH(
      RunOnOtherThread(
          [](void* arg) {
            static_cast<SpscQueue<int>*>(arg)->TryPush(2);
          },
          &q),
      "thread-affinity violation.*spsc-producer");
}

TEST_F(AffinityDeathTest, WrongThreadSpscPopAborts) {
  SpscQueue<int> q(8);
  ASSERT_TRUE(q.TryPush(1));
  int out = 0;
  ASSERT_TRUE(q.TryPop(&out));  // Main thread claims the consumer role.
  ASSERT_TRUE(q.TryPush(2));
  EXPECT_DEATH(
      RunOnOtherThread(
          [](void* arg) {
            int v;
            static_cast<SpscQueue<int>*>(arg)->TryPop(&v);
          },
          &q),
      "thread-affinity violation.*spsc-consumer");
}

TEST_F(AffinityDeathTest, ForeignRecursiveTableWriteAborts) {
  // Each worker owns its RecursiveTable partition replica exclusively; a
  // merge from any other thread is the partition-ownership bug the
  // distributor_offbyone fault injects downstream of the rings.
  RecursiveTable t("r", Schema::Ints(2), PlainSpec(2), 0, false,
                   EngineOptions{});
  const TupleBatch batch(2, {{1, 2}});
  t.MergeBatch(batch);  // Main thread claims the writer role.
  EXPECT_DEATH(
      RunOnOtherThread(
          [](void* arg) {
            const TupleBatch foreign(2, {{3, 4}});
            static_cast<RecursiveTable*>(arg)->MergeBatch(foreign);
          },
          &t),
      "thread-affinity violation.*recursive-table-writer");
}

TEST_F(AffinityDeathTest, MorselExecutorWriteAborts) {
  // A thief executing a stolen morsel is tagged kMorselExecutor
  // (read-only): it probes the victim's replica but must never write it —
  // derived tuples go through its own distributor. Reaching any writer
  // role from inside the scope is the ownership bug the tag exists to
  // catch, even on the thread that legitimately owns the writer role
  // outside the scope.
  RecursiveTable t("r", Schema::Ints(2), PlainSpec(2), 0, false,
                   EngineOptions{});
  const TupleBatch batch(2, {{1, 2}});
  t.MergeBatch(batch);  // Main thread claims the writer role.
  const TupleBatch more(2, {{3, 4}});
  const auto write_inside_morsel_scope = [&t, &more] {
    DCD_AFFINITY_MORSEL_SCOPE();
    t.MergeBatch(more);
  };
  EXPECT_DEATH(
      write_inside_morsel_scope(),
      "thread-affinity violation.*kMorselExecutor.*recursive-table-writer");
}

TEST_F(AffinityDeathTest, MorselScopeEndsWithScope) {
  // Writer roles work again once the morsel scope unwinds — the tag is
  // scoped to the stolen morsel's execution, not sticky on the thread.
  RecursiveTable t("r", Schema::Ints(2), PlainSpec(2), 0, false,
                   EngineOptions{});
  {
    DCD_AFFINITY_MORSEL_SCOPE();
    EXPECT_TRUE(AffinityThreadIsMorselExecutor());
  }
  EXPECT_FALSE(AffinityThreadIsMorselExecutor());
  const TupleBatch batch(2, {{1, 2}});
  t.MergeBatch(batch);
  EXPECT_EQ(t.rows().size(), 1u);
}

TEST_F(AffinityDeathTest, ForeignConsumedCounterAborts) {
  TerminationDetector det(2);
  det.AddConsumed(0, 5);  // Main thread claims worker 0's counter.
  EXPECT_DEATH(
      RunOnOtherThread(
          [](void* arg) {
            static_cast<TerminationDetector*>(arg)->AddConsumed(0, 1);
          },
          &det),
      "thread-affinity violation.*termination-consumer");
}

TEST_F(AffinityDeathTest, SameThreadHoldsEveryRole) {
  // num_workers == 1 runs the whole evaluation on one thread: a single
  // thread may hold producer, consumer and writer roles simultaneously.
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  int out = 0;
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 1);
  RecursiveTable t("r", Schema::Ints(2), PlainSpec(2), 0, false,
                   EngineOptions{});
  const TupleBatch batch(2, {{1, 2}});
  t.MergeBatch(batch);
  EXPECT_EQ(t.rows().size(), 1u);
}

TEST_F(AffinityDeathTest, DistinctRolesBindIndependently) {
  // Classic SPSC split: producer on one thread, consumer on another —
  // exactly the engine's ring discipline, and no violation.
  SpscQueue<int> q(64);
  std::thread producer([&q] {
    for (int i = 0; i < 32; ++i) {
      while (!q.TryPush(i)) {
      }
    }
  });
  int popped = 0;
  int v = 0;
  while (popped < 32) {
    if (q.TryPop(&v)) ++popped;
  }
  producer.join();
  EXPECT_EQ(v, 31);
}

TEST(AffinityTest, RebindAllowsOwnershipHandOff) {
  // Sequential reuse across threads is legal after an explicit Rebind at a
  // synchronization point (here: join).
  DCD_AFFINITY_OWNER(slot, "test-role");
  DCD_AFFINITY_GUARD(slot);  // Main thread claims.
  DCD_AFFINITY_REBIND(slot);
  std::thread other([&slot] { DCD_AFFINITY_GUARD(slot); });
  other.join();
  SUCCEED();
}

TEST(AffinityTest, ThreadIdsAreSmallAndDense) {
  const uint64_t self = AffinitySelfThreadId();
  EXPECT_GE(self, 1u);
  EXPECT_EQ(self, AffinitySelfThreadId());  // Stable per thread.
  uint64_t other_id = 0;
  std::thread other([&other_id] { other_id = AffinitySelfThreadId(); });
  other.join();
  EXPECT_NE(other_id, self);
}

#else  // !DCD_AFFINITY_ENABLED

TEST(AffinityTest, DisabledInThisBuild) {
  GTEST_SKIP() << "DCD_AFFINITY_ENABLED == 0 (NDEBUG build): the ownership "
                  "checker compiles to nothing here; "
                  "tools/lint/check_release_symbols.sh verifies that.";
}

#endif  // DCD_AFFINITY_ENABLED

}  // namespace
}  // namespace dcdatalog
