// Lightweight statistics: named counters, scalar accumulators, and
// fixed-bucket histograms. Every component owns a StatSet; the System
// aggregates them for reporting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rc {

class StateWriter;
class StateReader;

/// Mean/min/max/stddev accumulator for latency-like samples.
class Accumulator {
 public:
  void add(double v) {
    ++n_;
    sum_ += v;
    if (n_ == 1) shift_ = v;
    // Second moment about the first sample, not about zero: for samples
    // clustered far from zero (latencies offset by a large epoch, addresses)
    // the naive sum-of-squares form cancels catastrophically in variance().
    const double d = v - shift_;
    sumd_ += d;
    sumd2_ += d * d;
    if (v < min_ || n_ == 1) min_ = v;
    if (v > max_ || n_ == 1) max_ = v;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double stderr_mean() const;
  /// Half-width of the 95% confidence interval of the mean (normal
  /// approximation — the paper quotes the same, §5.5 / [38]).
  double ci95() const { return 1.96 * stderr_mean(); }

  void reset() { *this = Accumulator{}; }
  void merge(const Accumulator& o);
  /// Bitwise equality (the shard-determinism tests compare doubles exactly).
  bool operator==(const Accumulator&) const = default;

  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0, min_ = 0, max_ = 0;
  // Shifted second moment: shift_ is the first sample, sumd_ = sum(v-shift_),
  // sumd2_ = sum((v-shift_)^2). merge() rebases the other side's moments onto
  // this shift, so the result depends only on the merge order — which the
  // sharded engine keeps fixed (node order) for bitwise determinism.
  double shift_ = 0, sumd_ = 0, sumd2_ = 0;
};

/// Fixed-bucket histogram with power-of-two-ish bucket edges, cheap enough
/// for per-message latency samples; supports percentile queries.
class Histogram {
 public:
  /// Buckets: [0,1), [1,2), [2,4), [4,8), ... up to 2^30, plus overflow.
  static constexpr int kBuckets = 32;

  void add(double v);
  std::uint64_t count() const { return n_; }
  /// Value below which `fraction` of samples fall (upper bucket edge —
  /// conservative). fraction in [0,1].
  double percentile(double fraction) const;
  const std::uint64_t* buckets() const { return b_; }
  void reset();
  void merge(const Histogram& o);
  bool operator==(const Histogram&) const = default;

  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  std::uint64_t b_[kBuckets] = {};
  std::uint64_t n_ = 0;
};

/// Named counters + named accumulators. String keys keep the reporting
/// layer generic; hot paths cache references to the counters they bump.
class StatSet {
 public:
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  std::uint64_t counter_value(const std::string& name) const;
  Accumulator& acc(const std::string& name) { return accs_[name]; }
  const Accumulator* find_acc(const std::string& name) const;
  Histogram& hist(const std::string& name) { return hists_[name]; }
  const Histogram* find_hist(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const { return counters_; }
  const std::map<std::string, Accumulator>& accumulators() const { return accs_; }
  const std::map<std::string, Histogram>& histograms() const { return hists_; }

  void reset();
  void merge(const StatSet& o);
  bool operator==(const StatSet&) const = default;

  /// Snapshot save/load. Load assigns by name *in place* (no clear()): the
  /// map nodes components cached pointers into at construction stay valid,
  /// and the restored key set is exactly the saved one — a fresh System's
  /// eagerly created keys are a subset of any boundary state's.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Accumulator> accs_;
  std::map<std::string, Histogram> hists_;
};

/// Cached counter reference that resolves its string-keyed StatSet slot on
/// the first increment. Hot paths that bump a counter only on rare events
/// use this instead of an eager pointer so the counter materializes exactly
/// when it first fires — a counter that never fires never appears in the
/// report, same as an un-cached ++stats->counter(name). The resolved pointer
/// stays valid across StatSet::reset (counters are zeroed in place).
class LazyCounter {
 public:
  LazyCounter() = default;
  LazyCounter(StatSet* stats, const char* name)
      : stats_(stats), name_(name) {}
  void operator++() { *this += 1; }
  /// Adds `n`; like `stats->counter(name) += n`, adding 0 still
  /// materializes the counter.
  void operator+=(std::uint64_t n) {
    if (!p_) {
      if (!stats_) return;
      p_ = &stats_->counter(name_);
    }
    *p_ += n;
  }

 private:
  StatSet* stats_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t* p_ = nullptr;
};

}  // namespace rc
