// Host layout of the simulated caches: the SharerSet's owned spill block
// (copy/move semantics, growth, release, snapshot word round-trip), the
// tag-folded valid bit of CacheArray lines, and the line sizes that bound
// the simulator's resident memory (a 16x16 CMP holds 4M L2 lines).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "coherence/cache_array.hpp"
#include "coherence/directory.hpp"
#include "coherence/l1_cache.hpp"
#include "coherence/l2_bank.hpp"
#include "coherence/sharer_set.hpp"

namespace rc {
namespace {

static_assert(sizeof(L2Bank::Line) <= 40, "L2 line grew past 40 bytes");
static_assert(sizeof(Directory::Line) <= 40, "directory line grew past 40 B");
static_assert(sizeof(L1Cache::Line) <= 24, "L1 line grew past 24 bytes");

std::vector<NodeId> members(const SharerSet& s) {
  std::vector<NodeId> out;
  s.for_each([&](NodeId n) { out.push_back(n); });
  return out;
}

SharerSet make(std::initializer_list<NodeId> nodes) {
  SharerSet s;
  for (NodeId n : nodes) s.add(n);
  return s;
}

TEST(SharerSetLayout, CopyIsDeepAndMoveSteals) {
  SharerSet a = make({1, 70, 200});
  SharerSet b(a);
  b.add(300);
  b.remove(70);
  EXPECT_EQ(members(a), (std::vector<NodeId>{1, 70, 200}));
  EXPECT_EQ(members(b), (std::vector<NodeId>{1, 200, 300}));

  SharerSet c(std::move(b));
  EXPECT_EQ(members(c), (std::vector<NodeId>{1, 200, 300}));
  EXPECT_TRUE(b.none());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.words().size(), 1u);

  SharerSet d = make({5});
  d = a;  // copy-assign over an inline-only set
  EXPECT_EQ(members(d), members(a));
  d = c;  // copy-assign over a spilled set
  EXPECT_EQ(members(d), (std::vector<NodeId>{1, 200, 300}));
  d = std::move(a);
  EXPECT_EQ(members(d), (std::vector<NodeId>{1, 70, 200}));
  EXPECT_TRUE(a.none());  // NOLINT(bugprone-use-after-move)
}

TEST(SharerSetLayout, SelfAssignmentKeepsMembers) {
  SharerSet s = make({2, 64, 129});
  SharerSet& alias = s;
  s = alias;
  EXPECT_EQ(members(s), (std::vector<NodeId>{2, 64, 129}));
  s = std::move(alias);
  EXPECT_EQ(members(s), (std::vector<NodeId>{2, 64, 129}));
  EXPECT_EQ(s.words().size(), 3u);
}

TEST(SharerSetLayout, GrowsAcrossWordBoundaries) {
  SharerSet s;
  const std::vector<std::pair<NodeId, std::size_t>> steps = {
      {63, 1}, {64, 2}, {128, 3}, {255, 4}};
  std::vector<NodeId> added;
  for (const auto& [n, words] : steps) {
    s.add(n);
    added.push_back(n);
    EXPECT_EQ(s.words().size(), words) << "after adding " << n;
    EXPECT_EQ(members(s), added);
    EXPECT_EQ(s.count(), static_cast<int>(added.size()));
  }
  EXPECT_EQ(s.lowest_besides(63), 64);
  EXPECT_TRUE(s.any_besides(255));
  s.add(100);  // inside the existing spill: no growth
  EXPECT_EQ(s.words().size(), 4u);
  EXPECT_FALSE(s.test(254));
  EXPECT_FALSE(s.test(256));  // past the spill
}

TEST(SharerSetLayout, ClearReleasesTheSpill) {
  SharerSet s = make({3, 500});
  EXPECT_EQ(s.words().size(), 8u);
  s.clear();
  EXPECT_TRUE(s.none());
  EXPECT_EQ(s.words(), std::vector<std::uint64_t>{0});
  s.assign_only(65);
  EXPECT_EQ(s.words().size(), 2u);
  s.assign_only(7);
  EXPECT_EQ(s.words(), std::vector<std::uint64_t>{1ull << 7});
}

TEST(SharerSetLayout, WordsRoundTripExactly) {
  for (const std::vector<std::uint64_t>& w :
       {std::vector<std::uint64_t>{0}, {9}, {1, 0}, {0, 6, 0, 0},
        {~0ull, 1, 0x8000'0000'0000'0000ull}}) {
    SharerSet s = make({400});  // a prior spill must not leak through
    s.set_words(w);
    EXPECT_EQ(s.words(), w);
    SharerSet copy(s);
    EXPECT_EQ(copy.words(), w);
  }
  SharerSet s;
  s.set_words({});
  EXPECT_EQ(s.words(), std::vector<std::uint64_t>{0});
  // Trailing zero words are empty but kept: the snapshot codec relies on it.
  s.set_words({0, 0, 0});
  EXPECT_TRUE(s.none());
  EXPECT_EQ(s.words().size(), 3u);
}

struct Meta {
  int state = 0;
};

TEST(CacheArrayLayout, InvalidatedWayIsNeverFoundAndIsReused) {
  CacheArray<Meta> arr(1, 2);  // one set, two ways
  auto* a = arr.install(0x40, 1);
  auto* b = arr.install(0x80, 2);
  a->meta.state = 7;
  ASSERT_EQ(arr.free_way(0xc0), nullptr);
  a->invalidate();
  EXPECT_FALSE(a->valid());
  EXPECT_TRUE(b->valid());
  EXPECT_EQ(arr.find(0x40), nullptr);
  EXPECT_EQ(arr.victim(0x40, [](const auto&) { return true; }), b);

  bool hit = true;
  EXPECT_EQ(arr.find_or_free(0xc0, &hit), a);
  EXPECT_FALSE(hit);
  auto* c = arr.install_at(*a, 0xc0, 3);
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->meta.state, 0);  // install resets the payload
  EXPECT_EQ(arr.find(0xc0), c);
  EXPECT_EQ(arr.find(0x40), nullptr);
  EXPECT_EQ(arr.find_or_free(0x80, &hit), b);
  EXPECT_TRUE(hit);
}

TEST(CacheArrayLayout, FreshWaysAreInvalid) {
  CacheArray<Meta> arr(4, 4);
  for (const auto& l : arr.lines()) EXPECT_FALSE(l.valid());
  // Address 0 is a real line: it must not alias the invalid sentinel.
  EXPECT_EQ(arr.find(0), nullptr);
  arr.install(0, 1);
  ASSERT_NE(arr.find(0), nullptr);
  EXPECT_TRUE(arr.find(0)->valid());
}

}  // namespace
}  // namespace rc
