#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The benchmark's independent answer check. Nothing here calls into the
// engine: the base column is a seeded permutation of 0..n-1 that can be
// evaluated (and inverted) at any row id, so COUNT, SUM and MIN/MAX over
// the base have closed forms, and a per-writer model of acknowledged
// inserts and deletes adjusts them exactly.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace perfbench {

using Value = int64_t;
using RowId = uint32_t;

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seeded pseudo-random bijection on [0, n): a four-round balanced Feistel
/// network on the smallest even-width bit domain covering n, cycle-walked
/// back into range. `Apply(rowid)` is the base value stored at `rowid`,
/// `Invert(value)` the row id holding `value`.
class Permutation {
 public:
  Permutation(uint64_t n, uint64_t seed) : n_(n) {
    unsigned bits = 2;
    while ((uint64_t{1} << bits) < n) bits += 2;
    half_ = bits / 2;
    mask_ = (uint64_t{1} << half_) - 1;
    for (int r = 0; r < kRounds; ++r) keys_[r] = Mix64(seed * 4 + r + 1);
  }

  uint64_t size() const { return n_; }

  Value Apply(uint64_t x) const {
    do {
      x = Forward(x);
    } while (x >= n_);
    return static_cast<Value>(x);
  }

  uint64_t Invert(Value v) const {
    uint64_t x = static_cast<uint64_t>(v);
    do {
      x = Backward(x);
    } while (x >= n_);
    return x;
  }

 private:
  static constexpr int kRounds = 4;

  uint64_t F(uint64_t half, int r) const {
    return Mix64(half ^ keys_[r]) & mask_;
  }
  uint64_t Forward(uint64_t x) const {
    uint64_t l = x >> half_, r = x & mask_;
    for (int i = 0; i < kRounds; ++i) {
      const uint64_t t = l ^ F(r, i);
      l = r;
      r = t;
    }
    return (l << half_) | r;
  }
  uint64_t Backward(uint64_t x) const {
    uint64_t l = x >> half_, r = x & mask_;
    for (int i = kRounds - 1; i >= 0; --i) {
      const uint64_t t = r ^ F(l, i);
      r = l;
      l = t;
    }
    return (l << half_) | r;
  }

  uint64_t n_;
  unsigned half_ = 1;
  uint64_t mask_ = 1;
  uint64_t keys_[kRounds] = {};
};

/// The expected answer of one range query.
struct Expected {
  uint64_t count = 0;
  int64_t sum = 0;
  bool has_minmax = false;
  Value min = 0;
  Value max = 0;
};

/// Closed forms over the pristine base {0..n-1} clipped to [lo, hi).
inline Expected BaseAnswer(uint64_t n, Value lo, Value hi) {
  Expected e;
  const Value a = std::max<Value>(lo, 0);
  const Value b = std::min<Value>(hi, static_cast<Value>(n));
  if (a >= b) return e;
  e.count = static_cast<uint64_t>(b - a);
  // (a + b - 1) * (b - a) is always even; halve the even factor first.
  const int64_t s = a + b - 1, len = b - a;
  e.sum = (s % 2 == 0) ? (s / 2) * len : s * (len / 2);
  e.has_minmax = true;
  e.min = a;
  e.max = b - 1;
  return e;
}

/// Compares an answer of `kind` ("count", "sum", "minmax") with the
/// expectation; on a mismatch fills `why` and returns false.
inline bool CheckAnswer(const char* kind, const Expected& want,
                        uint64_t count, int64_t sum, bool has_minmax,
                        Value min, Value max, std::string* why) {
  const std::string k = kind;
  bool ok = true;
  if (k == "count") {
    ok = count == want.count;
  } else if (k == "sum") {
    ok = sum == want.sum;
  } else {
    ok = has_minmax == want.has_minmax &&
         (!has_minmax || (min == want.min && max == want.max));
  }
  if (!ok) {
    *why = k + ": got count=" + std::to_string(count) +
           " sum=" + std::to_string(sum) + " min=" + std::to_string(min) +
           " max=" + std::to_string(max) + ", expected count=" +
           std::to_string(want.count) + " sum=" + std::to_string(want.sum) +
           " min=" + std::to_string(want.min) +
           " max=" + std::to_string(want.max);
  }
  return ok;
}

/// Expected state of the column as one writer changed it: base tuples it
/// deleted and its inserts that are still live. Writers own disjoint value
/// bands, so each writer's model is exact for queries inside its band, and
/// the models of all writers together are exact for the whole domain.
class Model {
 public:
  explicit Model(const Permutation* perm) : perm_(perm) {}

  uint64_t n() const { return perm_->size(); }

  void AckInsert(Value v, RowId row) {
    inserts_.emplace(v, row);
    insert_rows_.emplace(row, v);
  }
  /// Deletes an own live insert; false when (v, row) is not one.
  bool AckDeleteInsert(Value v, RowId row) {
    auto [b, e] = inserts_.equal_range(v);
    for (auto it = b; it != e; ++it) {
      if (it->second == row) {
        inserts_.erase(it);
        insert_rows_.erase(row);
        return true;
      }
    }
    return false;
  }
  void AckDeleteBase(Value v) { deleted_base_.insert(v); }

  bool BaseDeleted(Value v) const { return deleted_base_.count(v) != 0; }
  bool InsertRowLive(RowId id) const { return insert_rows_.count(id) != 0; }
  size_t live_inserts() const { return inserts_.size(); }
  /// Some live insert (the smallest), for a delete that cancels one.
  std::pair<Value, RowId> AnyInsert() const { return *inserts_.begin(); }

  Expected Answer(Value lo, Value hi) const {
    Expected e = BaseAnswer(n(), lo, hi);
    MinMax mm;
    if (e.has_minmax) {
      // Smallest/largest base values in range that were not deleted.
      Value v = e.min;
      while (v <= e.max && BaseDeleted(v)) ++v;
      if (v <= e.max) mm.Feed(v);
      v = e.max;
      while (v >= e.min && BaseDeleted(v)) --v;
      if (v >= e.min) mm.Feed(v);
    }
    for (auto it = deleted_base_.lower_bound(lo);
         it != deleted_base_.end() && *it < hi; ++it) {
      if (*it < 0 || *it >= static_cast<Value>(n())) continue;
      e.count -= 1;
      e.sum -= *it;
    }
    for (auto it = inserts_.lower_bound(lo);
         it != inserts_.end() && it->first < hi; ++it) {
      e.count += 1;
      e.sum += it->first;
      mm.Feed(it->first);
    }
    e.has_minmax = mm.any;
    e.min = mm.min;
    e.max = mm.max;
    return e;
  }

  /// RowIds checked by property: every id is distinct, names a live tuple
  /// whose value lies in [lo, hi), and the number of ids matches COUNT.
  bool CheckRowIds(Value lo, Value hi, const std::vector<RowId>& ids,
                   std::string* why) const {
    const Expected e = Answer(lo, hi);
    if (ids.size() != e.count) {
      *why = "rowids: " + std::to_string(ids.size()) + " ids, expected " +
             std::to_string(e.count);
      return false;
    }
    std::unordered_set<RowId> seen;
    seen.reserve(ids.size());
    for (RowId id : ids) {
      if (!seen.insert(id).second) {
        *why = "rowids: duplicate id " + std::to_string(id);
        return false;
      }
      Value v = 0;
      if (id < n()) {
        v = perm_->Apply(id);
        if (BaseDeleted(v)) {
          *why = "rowids: deleted base row " + std::to_string(id);
          return false;
        }
      } else if (!LiveInsertValue(id, &v)) {
        *why = "rowids: unknown row " + std::to_string(id);
        return false;
      }
      if (v < lo || v >= hi) {
        *why = "rowids: row " + std::to_string(id) + " has value " +
               std::to_string(v) + " outside the range";
        return false;
      }
    }
    return true;
  }

  /// Totals for the whole-domain reconciliation.
  int64_t count_delta() const {
    return static_cast<int64_t>(inserts_.size()) -
           static_cast<int64_t>(deleted_base_.size());
  }
  int64_t sum_delta() const {
    int64_t s = 0;
    for (const auto& [v, row] : inserts_) s += v;
    for (Value v : deleted_base_) s -= v;
    return s;
  }

 private:
  struct MinMax {
    bool any = false;
    Value min = 0, max = 0;
    void Feed(Value v) {
      if (!any) {
        min = max = v;
        any = true;
      } else {
        min = std::min(min, v);
        max = std::max(max, v);
      }
    }
  };

  bool LiveInsertValue(RowId id, Value* v) const {
    auto it = insert_rows_.find(id);
    if (it == insert_rows_.end()) return false;
    *v = it->second;
    return true;
  }

  const Permutation* perm_;
  std::set<Value> deleted_base_;
  std::multimap<Value, RowId> inserts_;
  std::unordered_map<RowId, Value> insert_rows_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
