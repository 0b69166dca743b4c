#include "coherence/directory.hpp"

#include <string>
#include <vector>

#include "common/state.hpp"

namespace rc {

Directory::Directory(const CacheConfig& cfg, int num_banks)
    : array_(cfg.dir_sets, cfg.dir_ways, num_banks),
      pointers_(cfg.dir_pointers) {}

bool Directory::needs_pointer_recall(const Line& l, NodeId requestor) const {
  if (l.meta.sharers.test(requestor)) return false;
  return l.meta.sharers.count() >= pointers_;
}

Directory::Line* Directory::try_install(Addr addr, Cycle now) {
  if (!array_.free_way(addr)) return nullptr;
  return array_.install(addr, now);
}

Directory::Line* Directory::find_or_install(Addr addr, Cycle now) {
  bool hit;
  Line* l = array_.find_or_free(addr, &hit);
  return l && !hit ? array_.install_at(*l, addr, now) : l;
}

Directory::Line* Directory::victim(
    Addr addr, const std::function<bool(Addr)>& evictable) {
  return array_.victim(addr, [&](const Line& l) { return evictable(l.tag); });
}

void Directory::save(StateWriter& w) const {
  const auto& lines = array_.lines();
  w.u64(lines.size());
  for (const auto& l : lines) {
    // An invalid way saves tag 0; load() gives it the kNoLine sentinel.
    w.b(l.valid());
    w.u64(l.valid() ? l.tag : 0);
    w.u64(l.last_used);
    w.i64(l.meta.owner);
    const auto words = l.meta.sharers.words();
    w.u64(words.size());
    for (std::uint64_t x : words) w.u64(x);
  }
}

bool Directory::load(StateReader& r) {
  auto& lines = array_.lines();
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  if (n != lines.size())
    return r.fail("directory has " + std::to_string(lines.size()) +
                  " entries, snapshot has " + std::to_string(n));
  for (auto& l : lines) {
    bool valid;
    std::int64_t owner;
    std::uint64_t nw;
    if (!(r.b(&valid) && r.u64(&l.tag) && r.u64(&l.last_used) &&
          r.i64(&owner) && r.u64(&nw)))
      return false;
    if (!valid)
      l.invalidate();
    else if (l.tag != line_addr(l.tag))
      return r.fail("directory entry tag is not a line address");
    l.meta.owner = static_cast<NodeId>(owner);
    std::vector<std::uint64_t> words(nw);
    for (std::uint64_t& x : words)
      if (!r.u64(&x)) return false;
    l.meta.sharers.set_words(words);
  }
  return true;
}

}  // namespace rc
