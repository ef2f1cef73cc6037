// Self-test of the benchmark's oracle: the closed forms and the write model
// must agree with a brute-force scan of a small column, the RowIds property
// check must accept the true answer and flag corrupted ones, and the engine
// itself must agree with the oracle on a small updatable index.
//
// Run: perfbench/build/oracle_test   (exit code 0 = pass)

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/updatable_index.h"
#include "oracle.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// Brute-force column: (value, rowid) of every live tuple.
struct Brute {
  std::vector<std::pair<Value, RowId>> rows;

  Expected Answer(Value lo, Value hi) const {
    Expected e;
    for (const auto& [v, r] : rows) {
      if (v < lo || v >= hi) continue;
      e.count += 1;
      e.sum += v;
      if (!e.has_minmax) {
        e.min = e.max = v;
        e.has_minmax = true;
      } else {
        e.min = std::min(e.min, v);
        e.max = std::max(e.max, v);
      }
    }
    return e;
  }
  std::vector<RowId> Ids(Value lo, Value hi) const {
    std::vector<RowId> ids;
    for (const auto& [v, r] : rows) {
      if (v >= lo && v < hi) ids.push_back(r);
    }
    return ids;
  }
  void Erase(Value v, RowId r) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].first == v && rows[i].second == r) {
        rows.erase(rows.begin() + static_cast<long>(i));
        return;
      }
    }
  }
};

bool Same(const Expected& a, const Expected& b) {
  std::string why;
  return CheckAnswer("count", a, b.count, b.sum, b.has_minmax, b.min, b.max,
                     &why) &&
         CheckAnswer("sum", a, b.count, b.sum, b.has_minmax, b.min, b.max,
                     &why) &&
         CheckAnswer("minmax", a, b.count, b.sum, b.has_minmax, b.min, b.max,
                     &why);
}

void TestPermutation() {
  for (uint64_t n : {1ull, 7ull, 1000ull, 4097ull}) {
    Permutation p(n, 42);
    std::vector<int> hits(n, 0);
    bool round_trip = true;
    for (uint64_t i = 0; i < n; ++i) {
      const Value v = p.Apply(i);
      if (v < 0 || static_cast<uint64_t>(v) >= n) {
        round_trip = false;
        break;
      }
      hits[static_cast<size_t>(v)] += 1;
      round_trip &= p.Invert(v) == i;
    }
    bool bijective = round_trip;
    for (int h : hits) bijective &= h == 1;
    Expect(bijective, "permutation of n=" + std::to_string(n));
  }
  Permutation a(1000, 1), b(1000, 2);
  int same = 0;
  for (uint64_t i = 0; i < 1000; ++i) same += a.Apply(i) == b.Apply(i);
  Expect(same < 50, "different seeds give different permutations");
}

void TestModelAgainstBruteForce() {
  const uint64_t n = 1000;
  Permutation perm(n, 7);
  Model model(&perm);
  Brute brute;
  for (uint64_t i = 0; i < n; ++i) {
    brute.rows.emplace_back(perm.Apply(i), static_cast<RowId>(i));
  }
  // Inserts (including duplicates of base values), base deletes, and
  // deletes that cancel an insert.
  RowId next = static_cast<RowId>(n);
  uint64_t x = 99;
  for (int i = 0; i < 200; ++i) {
    x = Mix64(x);
    const Value v = static_cast<Value>(x % n);
    if (i % 4 == 3) {
      if (i % 8 == 3 && model.live_inserts() > 0) {
        const auto [iv, ir] = model.AnyInsert();
        Expect(model.AckDeleteInsert(iv, ir), "delete of a live insert");
        brute.Erase(iv, ir);
      } else if (!model.BaseDeleted(v)) {
        model.AckDeleteBase(v);
        brute.Erase(v, static_cast<RowId>(perm.Invert(v)));
      }
    } else {
      model.AckInsert(v, next);
      brute.rows.emplace_back(v, next++);
    }
  }
  Expect(!model.AckDeleteInsert(-5, 1), "unknown insert is not deletable");

  std::vector<std::pair<Value, Value>> ranges = {
      {0, static_cast<Value>(n)}, {-100, 5}, {995, 2000}, {10, 10},
      {50, 40}, {-50, -10}, {2000, 3000}};
  for (int i = 0; i < 300; ++i) {
    x = Mix64(x);
    const Value lo = static_cast<Value>(x % (n + 40)) - 20;
    ranges.emplace_back(lo, lo + static_cast<Value>((x >> 20) % 120));
  }
  for (const auto& [lo, hi] : ranges) {
    const std::string r = "[" + std::to_string(lo) + "," +
                          std::to_string(hi) + ")";
    Expect(Same(model.Answer(lo, hi), brute.Answer(lo, hi)),
           "model answer matches brute force on " + r);
    std::string why;
    Expect(model.CheckRowIds(lo, hi, brute.Ids(lo, hi), &why),
           "true rowids accepted on " + r + " " + why);
  }
  Expect(model.count_delta() ==
             static_cast<int64_t>(brute.rows.size()) - static_cast<int64_t>(n),
         "count reconciliation delta");
  Expect(static_cast<int64_t>(n * (n - 1) / 2) + model.sum_delta() ==
             brute.Answer(0, static_cast<Value>(n)).sum,
         "sum reconciliation delta");

  // Corrupted answers are flagged.
  const Value lo = 100, hi = 300;
  const Expected want = model.Answer(lo, hi);
  std::string why;
  Expect(!CheckAnswer("count", want, want.count + 1, 0, false, 0, 0, &why),
         "count off by one flagged");
  Expect(!CheckAnswer("sum", want, 0, want.sum - 1, false, 0, 0, &why),
         "sum off by one flagged");
  Expect(!CheckAnswer("minmax", want, 0, 0, true, want.min, want.max + 1,
                      &why),
         "max off by one flagged");
  Expect(!CheckAnswer("minmax", want, 0, 0, false, 0, 0, &why),
         "missing minmax flagged");
  const std::vector<RowId> ids = brute.Ids(lo, hi);
  std::vector<RowId> dropped(ids.begin() + 1, ids.end());
  Expect(!model.CheckRowIds(lo, hi, dropped, &why), "dropped rowid flagged");
  std::vector<RowId> dup = ids;
  dup.back() = dup.front();
  Expect(!model.CheckRowIds(lo, hi, dup, &why), "duplicate rowid flagged");
  std::vector<RowId> outside = ids;
  outside.back() = static_cast<RowId>(perm.Invert(hi + 5));
  Expect(!model.CheckRowIds(lo, hi, outside, &why),
         "rowid of a value outside the range flagged");
  std::vector<RowId> unknown = ids;
  unknown.back() = next + 1000;
  Expect(!model.CheckRowIds(lo, hi, unknown, &why), "unknown rowid flagged");
}

void TestEngineAgreesWithOracle() {
  const uint64_t n = 5000;
  Permutation perm(n, 11);
  std::vector<adaptidx::Value> values(n);
  for (uint64_t i = 0; i < n; ++i) values[i] = perm.Apply(i);
  adaptidx::IndexConfig config;
  config.snapshot_reads = true;
  adaptidx::UpdatableIndex index(adaptidx::Column("a", std::move(values)),
                                 config);
  Model model(&perm);
  uint64_t x = 5;
  for (int i = 0; i < 400; ++i) {
    x = Mix64(x);
    adaptidx::QueryContext ctx;
    ctx.snapshot_reads = (i % 2) == 0;
    if (i % 5 == 4) {
      const Value v = static_cast<Value>(x % n);
      if (!model.BaseDeleted(v)) {
        const auto row = static_cast<adaptidx::RowId>(perm.Invert(v));
        Expect(index.Delete(v, row, &ctx).ok(), "engine base delete");
        model.AckDeleteBase(v);
      }
    } else if (i % 5 == 3) {
      adaptidx::RowId row = 0;
      const Value v = static_cast<Value>(x % n);
      Expect(index.Insert(v, &ctx, &row).ok(), "engine insert");
      model.AckInsert(v, row);
    }
    const Value lo = static_cast<Value>((x >> 16) % n);
    const Value hi = lo + static_cast<Value>((x >> 40) % 200);
    const Expected want = model.Answer(lo, hi);
    const adaptidx::QueryKind kinds[] = {adaptidx::QueryKind::kCount,
                                         adaptidx::QueryKind::kSum,
                                         adaptidx::QueryKind::kMinMax,
                                         adaptidx::QueryKind::kRowIds};
    for (adaptidx::QueryKind kind : kinds) {
      adaptidx::Query q{kind, "", "", "", adaptidx::ValueRange{lo, hi}};
      adaptidx::QueryResult res;
      Expect(index.Execute(q, &ctx, &res).ok(), "engine query");
      std::string why;
      bool ok = true;
      switch (kind) {
        case adaptidx::QueryKind::kRowIds:
          ok = model.CheckRowIds(lo, hi, res.row_ids, &why);
          break;
        default:
          ok = CheckAnswer(kind == adaptidx::QueryKind::kCount ? "count"
                           : kind == adaptidx::QueryKind::kSum ? "sum"
                                                               : "minmax",
                           want, res.count, res.sum, res.has_minmax,
                           res.min_value, res.max_value, &why);
      }
      Expect(ok, "engine agrees with oracle: " + why);
    }
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPermutation();
  perfbench::TestModelAgainstBruteForce();
  perfbench::TestEngineAgreesWithOracle();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "oracle_test: %d failure(s)\n", perfbench::failures);
    return 1;
  }
  std::printf("oracle_test: ok\n");
  return 0;
}
