#include "core/allocation_mode.h"

#include <gtest/gtest.h>

namespace elastic::core {
namespace {

using platform::CpuMask;

class ModeTest : public ::testing::Test {
 protected:
  ModeTest() : topo_(numasim::MachineConfig{}) {}
  numasim::Topology topo_;
};

TEST_F(ModeTest, SparseAllocationOrderIteratesNodesFirst) {
  SparseMode mode(&topo_);
  CpuMask mask;
  std::vector<numasim::CoreId> order;
  for (int i = 0; i < 8; ++i) {
    const numasim::CoreId core = mode.NextToAllocate(mask);
    order.push_back(core);
    mask.Set(core);
  }
  // core(i, j) = 4i + j iterating i fastest: 0, 4, 8, 12, 1, 5, 9, 13.
  EXPECT_EQ(order, (std::vector<numasim::CoreId>{0, 4, 8, 12, 1, 5, 9, 13}));
}

TEST_F(ModeTest, DenseAllocationFillsNodeFirst) {
  DenseMode mode(&topo_);
  CpuMask mask;
  std::vector<numasim::CoreId> order;
  for (int i = 0; i < 6; ++i) {
    const numasim::CoreId core = mode.NextToAllocate(mask);
    order.push_back(core);
    mask.Set(core);
  }
  EXPECT_EQ(order, (std::vector<numasim::CoreId>{0, 1, 2, 3, 4, 5}));
}

TEST_F(ModeTest, ReleaseIsReverseOfAllocation) {
  DenseMode mode(&topo_);
  CpuMask mask = CpuMask::Of({0, 1, 2});
  EXPECT_EQ(mode.NextToRelease(mask), 2);
  SparseMode sparse(&topo_);
  CpuMask sparse_mask = CpuMask::Of({0, 4, 8});
  EXPECT_EQ(sparse.NextToRelease(sparse_mask), 8);
}

TEST_F(ModeTest, NeverReleasesTheLastCore) {
  DenseMode dense(&topo_);
  SparseMode sparse(&topo_);
  AdaptivePriorityMode adaptive(&topo_);
  const CpuMask one = CpuMask::Of({5});
  EXPECT_EQ(dense.NextToRelease(one), numasim::kInvalidCore);
  EXPECT_EQ(sparse.NextToRelease(one), numasim::kInvalidCore);
  EXPECT_EQ(adaptive.NextToRelease(one), numasim::kInvalidCore);
}

TEST_F(ModeTest, FullMaskCannotAllocate) {
  DenseMode mode(&topo_);
  const CpuMask all = CpuMask::AllOf(topo_);
  EXPECT_EQ(mode.NextToAllocate(all), numasim::kInvalidCore);
}

perf::WindowStats StatsWithPages(std::vector<int64_t> pages) {
  perf::CounterSnapshot deltas(static_cast<int>(pages.size()), 0);
  deltas.node_access_pages = std::move(pages);
  perf::WindowStats stats;
  stats.SetDeltas(std::move(deltas));
  return stats;
}

TEST_F(ModeTest, AdaptiveAllocatesOnHottestNode) {
  AdaptivePriorityMode mode(&topo_);
  mode.Observe(StatsWithPages({10, 500, 20, 30}));
  CpuMask mask;
  EXPECT_EQ(mode.NextToAllocate(mask), topo_.CoreAt(1, 0));
  mask.Set(topo_.CoreAt(1, 0));
  // Node 1 still hottest: next core also there.
  EXPECT_EQ(mode.NextToAllocate(mask), topo_.CoreAt(1, 1));
}

TEST_F(ModeTest, AdaptiveSpillsToNextNodeWhenHotNodeFull) {
  AdaptivePriorityMode mode(&topo_);
  mode.Observe(StatsWithPages({10, 500, 200, 30}));
  CpuMask mask = CpuMask::Of({4, 5, 6, 7});  // node 1 fully allocated
  EXPECT_EQ(mode.NextToAllocate(mask), topo_.CoreAt(2, 0));
}

TEST_F(ModeTest, AdaptiveReleasesFromColdestNode) {
  AdaptivePriorityMode mode(&topo_);
  mode.Observe(StatsWithPages({100, 500, 200, 1}));
  // Cores on nodes 1 and 3 allocated; node 3 is coldest.
  CpuMask mask = CpuMask::Of({4, 5, 12, 13});
  EXPECT_EQ(mode.NextToRelease(mask), 13);  // highest core of coldest node
}

TEST_F(ModeTest, AdaptiveReleaseSkipsNodesWithoutAllocatedCores) {
  AdaptivePriorityMode mode(&topo_);
  mode.Observe(StatsWithPages({100, 500, 200, 1}));
  // Nothing allocated on the coldest node 3: release from next-coldest (0).
  CpuMask mask = CpuMask::Of({0, 1, 4});
  EXPECT_EQ(mode.NextToRelease(mask), 1);
}

TEST_F(ModeTest, FactoryMakesAllThreeModes) {
  EXPECT_EQ(MakeMode("sparse", &topo_)->name(), "sparse");
  EXPECT_EQ(MakeMode("dense", &topo_)->name(), "dense");
  EXPECT_EQ(MakeMode("adaptive", &topo_)->name(), "adaptive");
}

TEST_F(ModeTest, ModesAlwaysProduceValidCoreUntilFull) {
  // Property: starting from empty, any mode can allocate exactly 16 cores.
  for (const char* name : {"sparse", "dense", "adaptive"}) {
    auto mode = MakeMode(name, &topo_);
    CpuMask mask;
    for (int i = 0; i < topo_.total_cores(); ++i) {
      const numasim::CoreId core = mode->NextToAllocate(mask);
      ASSERT_NE(core, numasim::kInvalidCore) << name << " step " << i;
      ASSERT_FALSE(mask.Has(core)) << name << " returned allocated core";
      mask.Set(core);
    }
    EXPECT_EQ(mode->NextToAllocate(mask), numasim::kInvalidCore);
  }
}

}  // namespace
}  // namespace elastic::core
