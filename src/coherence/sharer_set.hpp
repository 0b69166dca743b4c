// Directory sharer vector that scales past 64 nodes.
//
// The common case (every shipped preset up to 8x8) fits in one inline word;
// larger fabrics (16x16, 32x32) spill into one heap block of extra words.
// The block is length-prefixed (its first word holds the spill length), so
// the set is two words: 16 bytes, against 32 for an inline word plus a
// std::vector header. Every L2 line and directory entry carries one, and on
// 16x16 only a few thousand of the four million L2 lines ever spill.
// Default construction is the empty set, so CacheArray's `meta = Meta{}`
// reset on install clears the directory entry as before.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rc {

class SharerSet {
 public:
  SharerSet() = default;
  SharerSet(const SharerSet& o) : low_(o.low_) {
    if (o.high_) {
      high_ = alloc(o.spill());
      std::copy(o.high_ + 1, o.high_ + 1 + o.spill(), high_ + 1);
    }
  }
  SharerSet(SharerSet&& o) noexcept
      : low_(o.low_), high_(std::exchange(o.high_, nullptr)) {
    o.low_ = 0;
  }
  SharerSet& operator=(const SharerSet& o) {
    if (this != &o) *this = SharerSet(o);
    return *this;
  }
  SharerSet& operator=(SharerSet&& o) noexcept {
    if (this != &o) {
      delete[] high_;
      low_ = std::exchange(o.low_, 0);
      high_ = std::exchange(o.high_, nullptr);
    }
    return *this;
  }
  ~SharerSet() { delete[] high_; }

  void add(NodeId n) { word(n) |= bit(n); }
  void remove(NodeId n) {
    if (index(n) == 0)
      low_ &= ~bit(n);
    else if (index(n) <= spill())
      high_[index(n)] &= ~bit(n);
  }
  bool test(NodeId n) const {
    if (index(n) == 0) return (low_ & bit(n)) != 0;
    if (index(n) <= spill()) return (high_[index(n)] & bit(n)) != 0;
    return false;
  }
  /// Empty the set and release the spill block.
  void clear() {
    low_ = 0;
    delete[] high_;
    high_ = nullptr;
  }
  /// Make `n` the only member (recall paths: the old owner becomes the
  /// single S-state sharer).
  void assign_only(NodeId n) {
    clear();
    add(n);
  }
  bool none() const {
    if (low_ != 0) return false;
    for (std::size_t i = 1; i <= spill(); ++i)
      if (high_[i] != 0) return false;
    return true;
  }
  bool any() const { return !none(); }
  /// True when a member other than `n` exists (§ write invalidation: does
  /// the GetX need an invalidation round beyond the requestor itself?).
  bool any_besides(NodeId n) const {
    for (std::size_t i = 0; i <= spill(); ++i) {
      std::uint64_t w = at(i);
      if (index(n) == i) w &= ~bit(n);
      if (w != 0) return true;
    }
    return false;
  }
  /// Number of members (sparse-directory pointer budgeting).
  int count() const {
    int n = 0;
    for (std::size_t i = 0; i <= spill(); ++i)
      n += __builtin_popcountll(at(i));
    return n;
  }
  /// Lowest-numbered member other than `n`, or kInvalidNode. Deterministic
  /// pointer-overflow victim choice: the same configuration always recalls
  /// the same sharer (and the conformance model mirrors the rule).
  NodeId lowest_besides(NodeId n) const {
    for (std::size_t i = 0; i <= spill(); ++i) {
      std::uint64_t w = at(i);
      if (index(n) == i) w &= ~bit(n);
      if (w != 0)
        return static_cast<NodeId>(i * 64 +
                                   static_cast<std::size_t>(__builtin_ctzll(w)));
    }
    return kInvalidNode;
  }
  /// Raw word access for snapshot save/restore: word 0 is the inline low_
  /// word, words 1.. are the heap spill. Restoring through set_words keeps
  /// the spill's length exactly as saved (trailing zero words are
  /// semantically empty either way, but byte-identical snapshots are
  /// easier to reason about when the representation round-trips).
  std::vector<std::uint64_t> words() const {
    std::vector<std::uint64_t> w(spill() + 1);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = at(i);
    return w;
  }
  void set_words(const std::vector<std::uint64_t>& w) {
    clear();
    if (w.empty()) return;
    low_ = w[0];
    if (w.size() > 1) {
      high_ = alloc(w.size() - 1);
      std::copy(w.begin() + 1, w.end(), high_ + 1);
    }
  }

  /// Visit members in ascending NodeId order (deterministic invalidation
  /// send order — message ids and stats must not depend on set internals).
  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t i = 0; i <= spill(); ++i) {
      std::uint64_t w = at(i);
      while (w != 0) {
        const int b = __builtin_ctzll(w);
        w &= w - 1;
        fn(static_cast<NodeId>(i * 64 + static_cast<std::size_t>(b)));
      }
    }
  }

 private:
  static std::uint64_t bit(NodeId n) {
    return 1ull << (static_cast<unsigned>(n) % 64u);
  }
  static std::size_t index(NodeId n) {
    return static_cast<std::size_t>(n) / 64u;
  }
  /// A zeroed spill block of `n` words behind its length prefix.
  static std::uint64_t* alloc(std::size_t n) {
    auto* p = new std::uint64_t[n + 1]();
    p[0] = n;
    return p;
  }
  /// Spill length in words (sharers 64 and up).
  std::size_t spill() const {
    return high_ ? static_cast<std::size_t>(high_[0]) : 0;
  }
  /// Word `i` of the set: 0 is low_, 1..spill() live in the block.
  std::uint64_t at(std::size_t i) const { return i == 0 ? low_ : high_[i]; }
  std::uint64_t& word(NodeId n) {
    const std::size_t i = index(n);
    if (i == 0) return low_;
    if (i > spill()) {
      std::uint64_t* grown = alloc(i);
      if (high_) std::copy(high_ + 1, high_ + 1 + spill(), grown + 1);
      delete[] high_;
      high_ = grown;
    }
    return high_[i];
  }

  std::uint64_t low_ = 0;
  /// Spill block for nodes 64 and up: high_[0] = length n, high_[1..n] the
  /// words; nullptr when there is no spill.
  std::uint64_t* high_ = nullptr;
};

static_assert(sizeof(SharerSet) == 16,
              "SharerSet is one inline word plus a pointer");

}  // namespace rc
