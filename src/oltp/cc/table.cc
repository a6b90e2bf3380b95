#include "oltp/cc/table.h"

#include <sys/mman.h>

#include <mutex>
#include <utility>
#include <vector>

namespace elastic::oltp::cc {
namespace {

/// Released blocks kept for reuse; a release beyond this many unmaps. Two
/// tenants' tables rebuilt per experiment fit with room to spare.
constexpr size_t kMaxSpareBlocks = 4;

struct SpareBlocks {
  std::mutex mu;
  std::vector<std::pair<size_t, void*>> blocks;  // (bytes, mapping)
};

SpareBlocks& Spares() {
  // Never destroyed: a table may outlive static destruction order.
  static SpareBlocks* spares = new SpareBlocks;
  return *spares;
}

}  // namespace

void* Table::AcquireBlock(size_t bytes) {
  SpareBlocks& spares = Spares();
  {
    std::lock_guard<std::mutex> lock(spares.mu);
    for (size_t i = 0; i < spares.blocks.size(); ++i) {
      if (spares.blocks[i].first != bytes) continue;
      void* block = spares.blocks[i].second;
      spares.blocks.erase(spares.blocks.begin() +
                          static_cast<std::ptrdiff_t>(i));
      return block;
    }
  }
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  return block;
}

void Table::ReleaseBlock(void* block, size_t bytes) {
  SpareBlocks& spares = Spares();
  {
    std::lock_guard<std::mutex> lock(spares.mu);
    if (spares.blocks.size() < kMaxSpareBlocks) {
      spares.blocks.emplace_back(bytes, block);
      return;
    }
  }
  munmap(block, bytes);
}

}  // namespace elastic::oltp::cc
