// Runtime lock-rank cross-check tests. In checked builds
// (IVT_LOCK_RANKS=1: Debug and the TSan lane) an inverted acquisition
// must abort the process with a diagnostic — pinned here with death
// tests against the real generated ranks. In unchecked builds the
// entire mechanism must cost nothing: Mutex stays layout-identical to
// std::mutex and any acquisition order is tolerated.
#include "support/mutex.hpp"

#include <gtest/gtest.h>

#include <mutex>

namespace ivt::support {
namespace {

// Real generated constants, chosen for their distinct levels:
//   k_obs_Collector_mutex   level 20
//   k_obs_ThreadRing_mutex  level 30
//   k_obs_Registry_mutex_   level 40
// and two distinct locks sharing level 10:
//   k_errors_FailureLog_mutex_, k_dataflow_ThreadPool_mutex_

TEST(LockRankTest, RankedConstructionAndLevels) {
  EXPECT_EQ(lock_rank_level(LockRank::kUnranked), 0u);
  EXPECT_EQ(lock_rank_level(LockRank::k_obs_Collector_mutex), 20u);
  EXPECT_EQ(lock_rank_level(LockRank::k_obs_ThreadRing_mutex), 30u);
  EXPECT_EQ(lock_rank_level(LockRank::k_obs_Registry_mutex_), 40u);
  // Same level, distinct constants (the low byte disambiguates).
  EXPECT_EQ(lock_rank_level(LockRank::k_errors_FailureLog_mutex_), 10u);
  EXPECT_EQ(lock_rank_level(LockRank::k_dataflow_ThreadPool_mutex_), 10u);
  EXPECT_NE(LockRank::k_errors_FailureLog_mutex_,
            LockRank::k_dataflow_ThreadPool_mutex_);
}

TEST(LockRankTest, InOrderAcquisitionSucceeds) {
  Mutex low{LockRank::k_obs_Collector_mutex};
  Mutex mid{LockRank::k_obs_ThreadRing_mutex};
  Mutex high{LockRank::k_obs_Registry_mutex_};
  const MutexLock l1(low);
  const MutexLock l2(mid);
  const MutexLock l3(high);
}

TEST(LockRankTest, UnrankedLocksAreExemptInEitherDirection) {
  // One ranked/unranked pair per direction, so no two mutexes are ever
  // nested both ways (ThreadSanitizer's deadlock detector would report
  // that as a lock-order inversion). All four stay alive together: a
  // later pair on a reused stack address could alias an earlier one.
  Mutex ranked_first{LockRank::k_obs_Registry_mutex_};
  Mutex scratch_second;  // kUnranked
  Mutex scratch_first;   // kUnranked
  Mutex ranked_second{LockRank::k_obs_Registry_mutex_};
  {
    const MutexLock l1(ranked_first);
    const MutexLock l2(scratch_second);
  }
  {
    const MutexLock l1(scratch_first);
    const MutexLock l2(ranked_second);
  }
}

#if IVT_LOCK_RANKS

TEST(LockRankDeathTest, InvertedAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex high{LockRank::k_obs_Registry_mutex_};
  Mutex mid{LockRank::k_obs_ThreadRing_mutex};
  EXPECT_DEATH(
      {
        const MutexLock l1(high);
        const MutexLock l2(mid);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, EqualLevelAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Strict monotonicity: two level-10 locks may never nest, in either
  // order — that is exactly the ordering the static graph cannot prove.
  Mutex a{LockRank::k_errors_FailureLog_mutex_};
  Mutex b{LockRank::k_dataflow_ThreadPool_mutex_};
  EXPECT_DEATH(
      {
        const MutexLock l1(a);
        const MutexLock l2(b);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, ReacquisitionInsideWindowIsAFreshAcquisition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low{LockRank::k_obs_Collector_mutex};
  Mutex mid{LockRank::k_obs_ThreadRing_mutex};
  EXPECT_DEATH(
      {
        MutexLock l1(low);
        const MutexLock l2(mid);
        l1.unlock();  // manual window: low released below the top
        l1.lock();    // re-acquiring level 20 under level 30 must abort
      },
      "lock-rank violation");
}

TEST(LockRankTest, NonLifoReleaseKeepsTheStackConsistent) {
  Mutex low{LockRank::k_obs_Collector_mutex};
  Mutex mid{LockRank::k_obs_ThreadRing_mutex};
  Mutex high{LockRank::k_obs_Registry_mutex_};
  MutexLock l1(low);
  const MutexLock l2(mid);
  l1.unlock();  // held set is now {mid} — low popped from below the top
  const MutexLock l3(high);  // 40 > 30: fine
}

#else  // !IVT_LOCK_RANKS

TEST(LockRankTest, UncheckedBuildAddsNothingOverStdMutex) {
  static_assert(sizeof(Mutex) == sizeof(std::mutex),
                "Release Mutex must stay layout-identical to std::mutex");
  // No ordering enforcement: inverted nesting is tolerated.
  Mutex high{LockRank::k_obs_Registry_mutex_};
  Mutex mid{LockRank::k_obs_ThreadRing_mutex};
  const MutexLock l1(high);
  const MutexLock l2(mid);
}

#endif  // IVT_LOCK_RANKS

}  // namespace
}  // namespace ivt::support
