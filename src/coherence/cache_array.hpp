// Generic set-associative array with age-based (pseudo-)LRU replacement,
// shared by the L1 caches and the L2 banks.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace rc {

/// Tag of an invalid way. Tags are line addresses (multiples of kLineBytes),
/// so the all-ones address can never be one: folding the valid bit into the
/// tag saves a padded bool per line.
inline constexpr Addr kNoLine = ~Addr{0};
static_assert(kNoLine % kLineBytes != 0,
              "kNoLine must never equal a line address");

/// `Meta` is the per-line coherence payload (default-constructible state).
template <typename Meta>
class CacheArray {
 public:
  struct Line {
    Addr tag = kNoLine;  ///< full line address (simpler than split tag/index)
    Cycle last_used = 0;
    Meta meta{};
    bool valid() const { return tag != kNoLine; }
    /// Free the way; last_used and meta go stale until the next install.
    void invalidate() { tag = kNoLine; }
  };

  /// `index_stride` strips interleaving bits below the set index: a private
  /// L1 sees every line (stride 1), while a distributed L2 bank only sees
  /// every num_banks-th line, so indexing with stride = num_banks uses all
  /// of the bank's sets instead of the 1/num_banks aliased subset.
  CacheArray(int sets, int ways, int index_stride = 1)
      : sets_(sets), ways_(ways), stride_(index_stride),
        fold_(std::bit_width(static_cast<unsigned>(sets)) - 1),
        lines_(static_cast<std::size_t>(sets) * ways) {}

  int sets() const { return sets_; }
  int ways() const { return ways_; }

  int set_of(Addr addr) const {
    Addr h = addr / kLineBytes / static_cast<Addr>(stride_);
    // XOR-fold the tag bits into the index (standard set-index hashing) so
    // power-of-two-aligned regions do not alias into the same few sets.
    h ^= (h >> fold_) ^ (h >> (2 * fold_));
    return static_cast<int>(h % static_cast<Addr>(sets_));
  }

  /// Find the line holding `addr`, or nullptr.
  Line* find(Addr addr) {
    Addr la = line_addr(addr);
    int s = set_of(la);
    for (int w = 0; w < ways_; ++w) {
      Line& l = lines_[static_cast<std::size_t>(s) * ways_ + w];
      if (l.tag == la) return &l;
    }
    return nullptr;
  }

  /// One scan of addr's set: the line holding `addr` (`*hit` = true), else
  /// the first free way (`*hit` = false, the way free_way() would return),
  /// else nullptr when the set is full.
  Line* find_or_free(Addr addr, bool* hit) {
    Addr la = line_addr(addr);
    int s = set_of(la);
    Line* free = nullptr;
    for (int w = 0; w < ways_; ++w) {
      Line& l = lines_[static_cast<std::size_t>(s) * ways_ + w];
      if (!l.valid()) {
        if (!free) free = &l;
      } else if (l.tag == la) {
        *hit = true;
        return &l;
      }
    }
    *hit = false;
    return free;
  }

  /// Touch for replacement ordering.
  void touch(Line& l, Cycle now) { l.last_used = now; }

  /// A free way in addr's set, or nullptr when the set is full.
  Line* free_way(Addr addr) {
    int s = set_of(line_addr(addr));
    for (int w = 0; w < ways_; ++w) {
      Line& l = lines_[static_cast<std::size_t>(s) * ways_ + w];
      if (!l.valid()) return &l;
    }
    return nullptr;
  }

  /// Least-recently-used valid line in addr's set for which `evictable`
  /// holds; nullptr when none qualifies.
  template <typename Pred>
  Line* victim(Addr addr, Pred evictable) {
    int s = set_of(line_addr(addr));
    Line* best = nullptr;
    for (int w = 0; w < ways_; ++w) {
      Line& l = lines_[static_cast<std::size_t>(s) * ways_ + w];
      if (!l.valid() || !evictable(l)) continue;
      if (!best || l.last_used < best->last_used) best = &l;
    }
    return best;
  }

  /// Install `addr` in a free way (caller must have made room).
  Line* install(Addr addr, Cycle now) {
    Line* l = free_way(addr);
    RC_ASSERT(l != nullptr, "install without a free way");
    return install_at(*l, addr, now);
  }

  /// Install `addr` in `way`, a free way of addr's set the caller already
  /// found (find_or_free), without scanning the set again.
  Line* install_at(Line& way, Addr addr, Cycle now) {
    way.tag = line_addr(addr);
    way.last_used = now;
    way.meta = Meta{};
    return &way;
  }

  std::vector<Line>& lines() { return lines_; }
  const std::vector<Line>& lines() const { return lines_; }

 private:
  int sets_, ways_;
  int stride_ = 1;
  int fold_;  ///< set-index fold shift: floor(log2(sets_)), computed once
  std::vector<Line> lines_;
};

}  // namespace rc
