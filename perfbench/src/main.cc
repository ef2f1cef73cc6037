// The engine's benchmark: one process, restricted to one core by default,
// drives one workload for a fixed time with a few closed-loop clients,
// checks every answer against the oracle of oracle.h, and prints a run
// report whose last line is one JSON object. With --trace 0 it carries the
// end-to-end metrics, with --trace 1 the per-layer metrics of a separate
// traced run.
//
//   perfbench --workload <wire_reads|wire_durable_mix|embedded_scan>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--clients <k>] [--cores <c>] [--out <dir>]
//
// Workloads (see README.md for the full make-up):
//   wire_reads        served COUNT/SUM at 0.01% selectivity over a 1M-row
//                     column that fits in the last-level cache: the
//                     per-request overhead of the served path dominates.
//   wire_durable_mix  the same server with a group-commit WAL and snapshot
//                     sessions; 80% reads, 20% durable writes (inserts and
//                     deletes 3:1), each connection confined to its own
//                     value band so every answer is exact.
//   embedded_scan     an in-process Session summing 1% ranges of a 40M-row
//                     table larger than the last-level cache.
//
// Layers are measured from outside, by timing calls into their public entry
// points: server::Client (server), Session (engine), AdaptiveIndex::Execute
// (core), Session::Insert/Delete (engine writes), plus the counters the
// program exposes (QueryStats, LatchStats, the STATS frame, WalStats).

#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/adaptive_index.h"
#include "core/updatable_index.h"
#include "cracking/kernel_tiers.h"
#include "engine/database.h"
#include "engine/session.h"
#include "oracle.h"
#include "server/client.h"
#include "server/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using adaptidx::QueryKind;
using adaptidx::QueryResult;
using adaptidx::QueryStats;
using adaptidx::Status;

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ tracing

/// One timed call into a layer. Spans of one stream share its root span as
/// parent; every operation is its own request.
struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
};

/// Per-thread, in-memory span buffer (no locking); written out at the end.
class SpanLog {
 public:
  SpanLog(bool on, uint64_t slot) : on_(on), next_((slot << 40) | 1) {}
  bool on() const { return on_; }
  uint64_t NewId() { return next_++; }
  void Add(const char* name, int64_t start, int64_t end, uint64_t id,
           uint64_t parent, uint64_t request) {
    if (on_) spans_.push_back(Span{name, start, end, id, parent, request});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  uint64_t next_;
  std::vector<Span> spans_;
};

/// Runs `f`, returns its duration in ns and records it as a span.
template <class F>
int64_t Timed(SpanLog* log, const char* name, uint64_t parent, F&& f) {
  const int64_t start = Now();
  f();
  const int64_t end = Now();
  if (log->on()) {
    const uint64_t id = log->NewId();
    log->Add(name, start, end, id, parent, id);
  }
  return end - start;
}

// -------------------------------------------------------------- latencies

/// Log-linear latency histogram: exact below 128 ns, then 128 buckets per
/// power of two (0.8% resolution). A run's memory therefore does not grow
/// with how many operations it completes.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}
  void Add(int64_t ns) {
    ++counts_[Bucket(ns)];
    ++total_;
  }
  void Merge(const Histogram& o) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
  }
  /// Nearest-rank percentile in microseconds, interpolated linearly by
  /// rank inside its bucket; 0 if empty.
  double PctUs(double p) const {
    if (total_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(p * total_));
    rank = std::min<uint64_t>(std::max<uint64_t>(rank, 1), total_);
    uint64_t seen = 0;
    size_t b = 0;
    while (seen + counts_[b] < rank) seen += counts_[b++];
    const double frac = (static_cast<double>(rank - seen) - 0.5) /
                        static_cast<double>(counts_[b]);
    return (Lower(b) + frac * Width(b)) / 1e3;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static size_t Bucket(int64_t ns) {
    const uint64_t v = ns < 1 ? 1 : static_cast<uint64_t>(ns);
    if (v < kSub) return v;
    const int e = 63 - __builtin_clzll(v);
    return static_cast<size_t>(e - kSubBits + 1) * kSub +
           ((v >> (e - kSubBits)) - kSub);
  }
  static double Width(size_t b) {
    if (b < kSub) return 1.0;
    return std::ldexp(1.0, static_cast<int>(b / kSub) - 1);
  }
  static double Lower(size_t b) {
    if (b < kSub) return static_cast<double>(b);
    return static_cast<double>(kSub + b % kSub) * Width(b);
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// The timed window is cut into kSlices equal slices by completion time;
/// the last quarter of them is its converged (late) part.
constexpr int kSlices = 12;
constexpr int kLateSlices = kSlices / 4;

// ------------------------------------------------------------- workloads

enum class Op { kCount, kSum, kInsert, kDeleteBase, kDeleteInsert };

struct Spec {
  const char* name;
  uint64_t rows;
  double selectivity;
  bool wire;
  bool durable;
  std::vector<Op> round;  ///< one round of a stream's operations
  size_t adapt_rounds;    ///< fixed rounds per stream before the window
  size_t span_rounds;     ///< the window's first rounds per stream: its measured span
  size_t probe_every;     ///< traced runs probe the lower layers every k rounds
  int setup_reps;
  size_t clients;         ///< closed-loop clients unless --clients is given
};

std::vector<Op> DurableRound() {
  // 40 operations: 32 reads alternating COUNT/SUM and 8 writes (6 inserts,
  // one delete of a base tuple, one delete cancelling an own insert).
  const Op writes[8] = {Op::kInsert, Op::kInsert,     Op::kInsert,
                        Op::kDeleteBase, Op::kInsert, Op::kInsert,
                        Op::kInsert, Op::kDeleteInsert};
  std::vector<Op> round;
  int read = 0, write = 0;
  for (int i = 0; i < 40; ++i) {
    if (i % 5 == 4) {
      round.push_back(writes[write++]);
    } else {
      round.push_back(read++ % 2 == 0 ? Op::kCount : Op::kSum);
    }
  }
  return round;
}

bool FindSpec(const std::string& name, Spec* out) {
  const Spec specs[] = {
      {"wire_reads", 1000000, 1e-4, true, false, {Op::kCount, Op::kSum},
       5000, 40000, 2, 25, 2},
      {"wire_durable_mix", 1000000, 1e-4, true, true, DurableRound(), 250,
       1000, 1, 25, 2},
      // Two clients sharing one core would time-slice these ~2-8 ms scans,
      // and the p50 would flip between a solo and a shared latency.
      {"embedded_scan", 40000000, 1e-2, false, false, {Op::kSum}, 1200, 6000,
       4, 3, 1},
  };
  for (const Spec& s : specs) {
    if (name == s.name) {
      *out = s;
      return true;
    }
  }
  return false;
}

bool IsRead(Op op) { return op == Op::kCount || op == Op::kSum; }

const char* OpName(Op op) {
  switch (op) {
    case Op::kCount:
      return "count";
    case Op::kSum:
      return "sum";
    case Op::kInsert:
      return "insert";
    case Op::kDeleteBase:
      return "delete_base";
    case Op::kDeleteInsert:
      return "delete_insert";
  }
  return "?";
}

/// Seeded generator of uniform ranges (and values) inside one band.
class RangeGen {
 public:
  RangeGen(uint64_t seed, uint64_t tag, Value band_lo, Value band_hi,
           Value span)
      : state_(Mix64(seed * 1000003 + tag)),
        lo_(band_lo),
        hi_(band_hi),
        span_(span) {}
  std::pair<Value, Value> Range() {
    const Value lo =
        lo_ + static_cast<Value>(Next() % static_cast<uint64_t>(
                                               hi_ - lo_ - span_ + 1));
    return {lo, lo + span_};
  }
  Value InBand() {
    return lo_ + static_cast<Value>(Next() % static_cast<uint64_t>(hi_ - lo_));
  }

 private:
  uint64_t Next() { return Mix64(state_++); }
  uint64_t state_;
  Value lo_, hi_, span_;
};

// ------------------------------------------------------------- endpoints

enum class Layer { kWire, kSession, kCore };

/// What one stream talks to. Wire workloads set `client` (the stream) and,
/// in traced runs, `session` over the served index (the engine probe);
/// the embedded workload's stream is `session` itself. `core` is the index
/// behind both, probed directly in traced runs.
struct Endpoint {
  adaptidx::server::Client* client = nullptr;
  adaptidx::Session* session = nullptr;
  adaptidx::AdaptiveIndex* core = nullptr;
  adaptidx::UpdatableIndex* updatable = nullptr;
  bool snapshot = false;
};

Status ReadVia(Layer layer, const Endpoint& ep, QueryKind kind, Value lo,
               Value hi, QueryResult* res, QueryStats* qs) {
  res->Reset(kind);
  const adaptidx::Query q{kind, "t", "a", "", adaptidx::ValueRange{lo, hi}};
  switch (layer) {
    case Layer::kWire:
      switch (kind) {
        case QueryKind::kCount:
          return ep.client->Count(lo, hi, &res->count);
        case QueryKind::kSum:
          return ep.client->Sum(lo, hi, &res->sum);
        case QueryKind::kMinMax:
          return ep.client->MinMax(lo, hi, &res->min_value, &res->max_value,
                                   &res->has_minmax);
        default:
          return ep.client->RowIds(lo, hi, &res->row_ids);
      }
    case Layer::kSession:
      return ep.session->Execute(q, res, qs);
    case Layer::kCore: {
      adaptidx::QueryContext ctx;
      ctx.snapshot_reads = ep.snapshot;
      Status s = ep.core->Execute(q, &ctx, res);
      *qs = ctx.stats;
      return s;
    }
  }
  return Status::InvalidArgument("layer");
}

Status WriteVia(Layer layer, const Endpoint& ep, bool insert, Value v,
                RowId* row) {
  if (layer == Layer::kWire) {
    return insert ? ep.client->Insert(v, row) : ep.client->Delete(v, *row);
  }
  return insert ? ep.session->Insert(ep.updatable, v, row)
                : ep.session->Delete(ep.updatable, v, *row);
}

bool CheckRead(const Model& model, QueryKind kind, Value lo, Value hi,
               const QueryResult& r, std::string* why) {
  if (kind == QueryKind::kRowIds) return model.CheckRowIds(lo, hi, r.row_ids, why);
  const char* name = kind == QueryKind::kCount ? "count"
                     : kind == QueryKind::kSum ? "sum"
                                               : "minmax";
  return CheckAnswer(name, model.Answer(lo, hi), r.count, r.sum, r.has_minmax,
                     r.min_value, r.max_value, why);
}

// ---------------------------------------------------------------- streams

double CpuSeconds();
double PeakRssMb();

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// A read that exposed its QueryStats, with its place in the stream.
struct Probe {
  int64_t ns;
  size_t pos;   ///< stream reads completed before it
  bool window;  ///< issued in the timed window (not while adapting)
  QueryStats qs;
};

/// Everything one closed-loop client measured.
struct Stream {
  Stream(bool trace, uint64_t slot) : log(trace, slot) {}

  size_t reads_done = 0;  ///< stream reads so far
  bool in_window = false;  ///< the timed window has opened
  Histogram early;        ///< first eighth of the adaptation reads
  std::vector<Histogram> slice_reads = std::vector<Histogram>(kSlices);
  std::vector<uint64_t> slice_ops = std::vector<uint64_t>(kSlices, 0);
  Histogram span_reads;   ///< the measured span's reads
  Histogram writes;       ///< the window's durable writes
  std::vector<Probe> session_reads;
  std::vector<Probe> core_reads;
  std::vector<int64_t> session_writes;  ///< window only
  std::vector<int64_t> stats_rtt;       ///< window only
  uint64_t ops_done = 0;  ///< stream operations (not probes or checks)
  size_t adapt_reads = 0;  ///< reads of the adaptation phase
  uint64_t adapt_ops = 0;  ///< operations of the adaptation phase
  std::map<std::string, OpCount> ops;
  uint64_t wrong = 0;
  std::string first_error;
  SpanLog log;

  void Tally(const std::string& type, const Status& s, bool right,
             const std::string& why) {
    OpCount& c = ops[type];
    ++c.attempted;
    if (s.ok() && right) return;
    ++c.failed;
    if (s.ok()) ++wrong;
    if (first_error.empty()) {
      first_error = type + ": " + (s.ok() ? why : s.ToString());
    }
  }
};

struct Context {
  const Spec* spec;
  const Permutation* perm;
  uint64_t seed;
  bool trace;
  Value span;
  int64_t window_ns;  ///< length of the timed window
  size_t streams;     ///< closed-loop clients
};

QueryKind KindOf(Op op) {
  return op == Op::kCount ? QueryKind::kCount : QueryKind::kSum;
}

const char* SpanName(Layer layer, QueryKind kind) {
  static const char* names[3][4] = {
      {"server.client.count", "server.client.sum", "server.client.minmax",
       "server.client.rowids"},
      {"engine.session.count", "engine.session.sum", "engine.session.minmax",
       "engine.session.rowids"},
      {"core.execute.count", "core.execute.sum", "core.execute.minmax",
       "core.execute.rowids"}};
  const int k = kind == QueryKind::kCount   ? 0
                : kind == QueryKind::kSum   ? 1
                : kind == QueryKind::kMinMax ? 2
                                             : 3;
  return names[static_cast<int>(layer)][k];
}

const char* LayerTag(Layer layer) {
  return layer == Layer::kWire ? "" : layer == Layer::kSession ? "session_"
                                                              : "core_";
}

/// One checked read; returns its latency.
int64_t DoRead(Layer layer, const Endpoint& ep, QueryKind kind, Value lo,
               Value hi, const Model& model, Stream* st, uint64_t parent,
               QueryStats* qs) {
  QueryResult res;
  Status s;
  QueryStats local;
  const int64_t ns = Timed(&st->log, SpanName(layer, kind), parent, [&] {
    s = ReadVia(layer, ep, kind, lo, hi, &res, qs != nullptr ? qs : &local);
  });
  std::string why;
  const bool right = s.ok() && CheckRead(model, kind, lo, hi, res, &why);
  st->Tally(std::string(LayerTag(layer)) + adaptidx::ToString(kind), s, right,
            why);
  return ns;
}

/// One checked write (`op` is kInsert, kDeleteBase or kDeleteInsert) kept
/// in the writer's band model; returns its latency.
int64_t DoWrite(Layer layer, const Endpoint& ep, Op op, RangeGen* gen,
                const Context& cx, Model* model, Stream* st,
                uint64_t parent) {
  if (op == Op::kDeleteInsert && model->live_inserts() == 0) {
    op = Op::kDeleteBase;
  }
  Value v = 0;
  RowId row = 0;
  if (op == Op::kInsert) {
    v = gen->InBand();
  } else if (op == Op::kDeleteBase) {
    do {
      v = gen->InBand();
    } while (model->BaseDeleted(v));
    row = static_cast<RowId>(cx.perm->Invert(v));
  } else {
    std::tie(v, row) = model->AnyInsert();
  }
  Status s;
  const char* name = layer == Layer::kWire
                         ? (op == Op::kInsert ? "server.client.insert"
                                              : "server.client.delete")
                         : (op == Op::kInsert ? "engine.session.insert"
                                              : "engine.session.delete");
  const int64_t ns = Timed(&st->log, name, parent, [&] {
    s = WriteVia(layer, ep, op == Op::kInsert, v, &row);
  });
  std::string why;
  bool right = true;
  if (s.ok()) {
    if (op == Op::kInsert) {
      // A fresh row id lies past the base and names no live tuple.
      right = row >= cx.perm->size() && !model->InsertRowLive(row);
      if (!right) why = "reused or base row id " + std::to_string(row);
      model->AckInsert(v, row);
    } else if (op == Op::kDeleteBase) {
      model->AckDeleteBase(v);
    } else {
      model->AckDeleteInsert(v, row);
    }
  }
  st->Tally(std::string(layer == Layer::kWire ? "" : "session_") + OpName(op),
            s, right, why);
  return ns;
}

/// Probes the layers under the stream's own entry point with fresh ranges
/// of the same shape (traced runs only): a STATS round trip, a Session read
/// and, on the durable workload, a Session write for wire streams; an
/// `AdaptiveIndex::Execute` read for every stream.
void ProbeLayers(const Context& cx, const Endpoint& ep, size_t probe,
                 RangeGen* gen, Model* model, Stream* st, uint64_t root) {
  const Spec& spec = *cx.spec;
  std::vector<QueryKind> kinds;
  for (Op op : spec.round) {
    if (IsRead(op)) kinds.push_back(KindOf(op));
  }
  const QueryKind kind = kinds[probe % kinds.size()];
  const size_t pos = st->reads_done;
  if (spec.wire) {
    adaptidx::server::StatsMsg msg;
    Status s;
    const int64_t rtt = Timed(&st->log, "server.client.stats", root,
                              [&] { s = ep.client->Stats(&msg); });
    if (st->in_window) st->stats_rtt.push_back(rtt);
    st->Tally("stats", s, true, "");
    const auto [lo, hi] = gen->Range();
    QueryStats qs;
    const int64_t ns =
        DoRead(Layer::kSession, ep, kind, lo, hi, *model, st, root, &qs);
    st->session_reads.push_back(Probe{ns, pos, st->in_window, qs});
    if (spec.durable) {
      const Op cycle[4] = {Op::kInsert, Op::kInsert, Op::kInsert,
                           (probe / 4) % 2 == 0 ? Op::kDeleteBase
                                                : Op::kDeleteInsert};
      const int64_t wns = DoWrite(Layer::kSession, ep, cycle[probe % 4], gen,
                                  cx, model, st, root);
      if (st->in_window) st->session_writes.push_back(wns);
    }
  }
  const auto [lo, hi] = gen->Range();
  QueryStats qs;
  const int64_t ns =
      DoRead(Layer::kCore, ep, kind, lo, hi, *model, st, root, &qs);
  st->core_reads.push_back(Probe{ns, pos, st->in_window, qs});
}

/// Separates each stream's fixed adaptation phase from the timed window:
/// the window opens once every stream has finished its adaptation rounds.
/// It also marks the end of the measured span (every stream's first
/// `span_rounds` window rounds): the stream that finishes it last records
/// the time, the process's CPU time and peak memory, and the window's
/// operations so far.
struct Gate {
  std::atomic<size_t> arrived{0};
  std::atomic<int64_t> deadline{0};
  std::atomic<uint64_t> window_ops{0};
  std::atomic<size_t> spanned{0};
  // Written by the last stream to finish the span; read after join.
  int64_t span_end = 0;
  double span_cpu = 0;
  double span_rss_mb = 0;
  uint64_t span_ops = 0;
};

/// The closed loop of one client: `adapt_rounds` whole rounds, then whole
/// rounds until the window's deadline.
void RunStream(const Context& cx, const Endpoint& ep, size_t index,
               Value band_lo, Value band_hi, Gate* gate, Model* model,
               Stream* st) {
  const Spec& spec = *cx.spec;
  const Layer layer = spec.wire ? Layer::kWire : Layer::kSession;
  RangeGen gen(cx.seed, index + 1, band_lo, band_hi, cx.span);
  const int64_t start = Now();
  const uint64_t root = st->log.NewId();
  size_t reads_per_round = 0;
  for (Op op : spec.round) reads_per_round += IsRead(op) ? 1 : 0;
  const size_t early_reads = (spec.adapt_rounds * reads_per_round + 7) / 8;
  int64_t window = 0;  // start of the timed window; 0 while adapting
  auto slice = [&] {
    return static_cast<int>(std::clamp<int64_t>(
        (Now() - window) / (cx.window_ns / kSlices), 0, kSlices - 1));
  };
  size_t rounds = 0;
  size_t span_round = 0;  // window rounds completed
  auto run_round = [&] {
    for (Op op : spec.round) {
      if (IsRead(op)) {
        const auto [lo, hi] = gen.Range();
        QueryStats qs;
        const size_t pos = st->reads_done++;
        const int64_t ns =
            DoRead(layer, ep, KindOf(op), lo, hi, *model, st, root, &qs);
        if (window != 0) {
          const int k = slice();
          st->slice_reads[k].Add(ns);
          ++st->slice_ops[k];
          if (span_round < spec.span_rounds) st->span_reads.Add(ns);
        } else if (pos < early_reads) {
          st->early.Add(ns);
        }
        if (layer == Layer::kSession) {
          st->session_reads.push_back(Probe{ns, pos, st->in_window, qs});
        }
      } else {
        const int64_t ns = DoWrite(layer, ep, op, &gen, cx, model, st, root);
        if (window != 0) {
          st->writes.Add(ns);
          ++st->slice_ops[slice()];
        }
      }
      ++st->ops_done;
    }
    ++rounds;
    if (cx.trace && rounds % spec.probe_every == 0) {
      ProbeLayers(cx, ep, rounds / spec.probe_every, &gen, model, st, root);
    }
  };
  while (rounds < spec.adapt_rounds) run_round();
  st->adapt_reads = st->reads_done;
  st->adapt_ops = st->ops_done;
  gate->arrived.fetch_add(1);
  int64_t deadline = 0;
  while ((deadline = gate->deadline.load()) == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  window = deadline - cx.window_ns;
  st->in_window = true;
  while (Now() < deadline) {
    run_round();
    gate->window_ops.fetch_add(spec.round.size());
    if (++span_round == spec.span_rounds &&
        gate->spanned.fetch_add(1) + 1 == cx.streams) {
      gate->span_end = Now();
      gate->span_cpu = CpuSeconds();
      gate->span_rss_mb = PeakRssMb();
      gate->span_ops = gate->window_ops.load();
    }
  }
  st->log.Add("bench.stream", start, Now(), root, 0, root);
}

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile of `v` (sorted in place), in microseconds.
double PctUs(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return static_cast<double>(v[rank - 1]) / 1e3;
}

/// A stream's early reads are the first eighth of its adaptation phase,
/// its late reads the last quarter of its window (the converged regime).
bool Early(size_t pos, const Stream& st) {
  return pos < (st.adapt_reads + 7) / 8;
}
bool Late(size_t pos, const Stream& st) {
  const size_t n = st.reads_done;
  return pos >= n - (n - st.adapt_reads) / 4;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

template <class F>
double Mean(const std::vector<const Probe*>& v, F f) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const Probe* p : v) s += f(*p);
  return s / static_cast<double>(v.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ------------------------------------------------------------------- host

std::string ReadFirstLine(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (key.empty()) return line;
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) return line;
      size_t b = colon + 1;
      while (b < line.size() && (line[b] == ' ' || line[b] == '\t')) ++b;
      return line.substr(b);
    }
  }
  return "";
}

/// CPU time (user + system) the whole process has used so far.
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  const std::string hwm = ReadFirstLine("/proc/self/status", "VmHWM");
  return std::strtod(hwm.c_str(), nullptr) / 1024.0;  // kB -> MB
}

std::string HostFingerprint() {
  std::string llc = ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size", "");
  if (llc.empty()) {
    const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
    llc = bytes > 0 ? std::to_string(bytes / 1024) + "K" : "unknown";
  }
  std::string cpu = ReadFirstLine("/proc/cpuinfo", "model name");
  std::ostringstream os;
  os << "cpu=\"" << (cpu.empty() ? "unknown" : cpu) << "\" nproc="
     << std::thread::hardware_concurrency() << " llc=" << llc
     << " kernel_tier="
     << adaptidx::KernelTierName(
            adaptidx::ResolveKernelTier(adaptidx::KernelTier::kAuto))
     << " build=" << PERFBENCH_BUILD_TYPE;
  return os.str();
}

// -------------------------------------------------------------------- run

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  size_t clients = 0;  ///< 0: the workload's own
  size_t cores = 1;  ///< 0: every core the process may use
  std::string out = "perfbench/out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--clients") a->clients = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--cores") a->cores = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--out") a->out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) && a->clients <= 64;
}

std::vector<adaptidx::Value> GenerateColumn(const Permutation& perm) {
  std::vector<adaptidx::Value> values(perm.size());
  const size_t parts = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (size_t p = 0; p < parts; ++p) {
    threads.emplace_back([&, p] {
      const size_t b = values.size() * p / parts;
      const size_t e = values.size() * (p + 1) / parts;
      for (size_t i = b; i < e; ++i) values[i] = perm.Apply(i);
    });
  }
  for (auto& t : threads) t.join();
  return values;
}

/// The program state one run measures: a served index with connected
/// clients, or an embedded table with open sessions.
struct State {
  std::unique_ptr<adaptidx::server::Server> server;
  std::vector<std::unique_ptr<adaptidx::server::Client>> clients;
  std::string data_dir;
  std::unique_ptr<adaptidx::Database> db;
  std::vector<std::unique_ptr<adaptidx::Session>> sessions;

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() { Teardown(); }

  void Teardown() {
    for (auto& c : clients) c->CloseSession();
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    sessions.clear();
    db.reset();
    if (!data_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
      data_dir.clear();
    }
  }
};

Status SetUp(const Spec& spec, const std::vector<adaptidx::Value>& values,
             size_t clients, const std::string& data_dir, State* st) {
  if (spec.wire) {
    adaptidx::server::ServerOptions opts;
    if (spec.durable) {
      opts.index_config.snapshot_reads = true;
      opts.durability.data_dir = data_dir;
      opts.durability.fsync_policy = adaptidx::FsyncPolicy::kGroup;
      st->data_dir = data_dir;
    }
    st->server = std::make_unique<adaptidx::server::Server>(
        adaptidx::Column("A", values), opts);
    Status s = st->server->Start();
    if (!s.ok()) return s;
    for (size_t c = 0; c < clients; ++c) {
      auto client = std::make_unique<adaptidx::server::Client>();
      s = client->Connect("127.0.0.1", st->server->port());
      if (s.ok()) s = client->OpenSession(spec.durable);
      if (!s.ok()) return s;
      st->clients.push_back(std::move(client));
    }
    return Status::OK();
  }
  st->db = std::make_unique<adaptidx::Database>();
  std::vector<adaptidx::Column> cols;
  cols.emplace_back("a", values);
  Status s = st->db->CreateTable("t", std::move(cols));
  if (!s.ok()) return s;
  for (size_t c = 0; c < clients; ++c) {
    st->sessions.push_back(st->db->OpenSession());
  }
  return Status::OK();
}

void WriteSpans(const std::string& path, const std::vector<const Stream*>& streams,
                const SpanLog& main_log) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  auto dump = [f](const SpanLog& log) {
    for (const Span& s : log.spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  };
  dump(main_log);
  for (const Stream* st : streams) dump(st->log);
  std::fclose(f);
}

/// Cost of recording one span (two clock reads and a buffer append).
double SpanCostNs() {
  SpanLog log(true, 999);
  const int kSpans = 200000;
  const int64_t start = Now();
  for (int i = 0; i < kSpans; ++i) Timed(&log, "calibration", 0, [] {});
  return static_cast<double>(Now() - start) / kSpans;
}

/// Restricts the process (every thread it starts from now on) to the first
/// `cores` CPUs it may use, all of them if 0; returns them as a
/// comma-separated list, or "" on failure. On a shared VM a
/// thread woken on another, idle virtual CPU waits for the host to schedule
/// that CPU, and that wait follows the host's load; on one core the
/// program's thread hand-offs are plain context switches.
std::string PinToCores(size_t cores) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  size_t n = 0;
  for (int c = 0; c < CPU_SETSIZE && (cores == 0 || n < cores); ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &chosen);
    list += (n++ == 0 ? "" : ",") + std::to_string(c);
  }
  if (n == 0 || (cores != 0 && n < cores)) return "";
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "";
  return list;
}

int Run(const Args& args) {
  Spec spec;
  if (!FindSpec(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const size_t nclients = args.clients != 0 ? args.clients : spec.clients;
  const std::string cpus = PinToCores(args.cores);
  if (cpus.empty()) {
    std::fprintf(stderr, "cannot restrict the process to %zu cores\n",
                 args.cores);
    return 2;
  }
  const bool trace = args.trace == 1;
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);

  const Permutation perm(spec.rows, args.seed);
  const Value n = static_cast<Value>(spec.rows);
  const Context cx{&spec, &perm, args.seed, trace,
                   std::max<Value>(1, static_cast<Value>(std::llround(
                                          spec.selectivity * spec.rows))),
                   static_cast<int64_t>(args.seconds) * 1000000000LL,
                   nclients};
  SpanLog main_log(trace, nclients + 1);

  // ---- set-up, repeated; the last one is measured against.
  std::vector<adaptidx::Value> values = GenerateColumn(perm);
  std::vector<int64_t> setup_ns;
  State state;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    state.Teardown();
    const std::string dir = args.out + "/wal-" + std::to_string(getpid()) +
                            "-" + std::to_string(rep);
    Status s;
    setup_ns.push_back(Timed(&main_log, "bench.setup", 0, [&] {
      s = SetUp(spec, values, nclients, dir, &state);
    }));
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  values.clear();
  values.shrink_to_fit();

  std::shared_ptr<adaptidx::AdaptiveIndex> table_index;
  adaptidx::UpdatableIndex* served =
      spec.wire ? state.server->index() : nullptr;
  if (!spec.wire) {
    table_index = state.db->GetOrCreateIndex("t", "a", adaptidx::IndexConfig());
  }
  adaptidx::AdaptiveIndex* core =
      spec.wire ? static_cast<adaptidx::AdaptiveIndex*>(served)
                : table_index.get();
  adaptidx::AdaptiveIndex* base = spec.wire ? served->base_index() : core;

  std::vector<std::unique_ptr<adaptidx::Session>> probe_sessions;
  std::vector<Endpoint> eps(nclients);
  std::vector<Model> models(nclients, Model(&perm));
  std::vector<std::pair<Value, Value>> bands(nclients, {0, n});
  for (size_t c = 0; c < nclients; ++c) {
    Endpoint& ep = eps[c];
    ep.core = core;
    ep.snapshot = spec.durable;
    if (spec.wire) {
      ep.client = state.clients[c].get();
      ep.updatable = served;
      adaptidx::SessionOptions so;
      so.snapshot_reads = spec.durable;
      probe_sessions.push_back(adaptidx::Session::OnIndex(served, nullptr, so));
      ep.session = probe_sessions.back().get();
    } else {
      ep.session = state.sessions[c].get();
    }
    if (spec.durable) {
      bands[c] = {n * static_cast<Value>(c) / static_cast<Value>(nclients),
                  n * static_cast<Value>(c + 1) / static_cast<Value>(nclients)};
    }
  }

  // ---- the first query touches the index (charged its one-off init).
  Stream checks(trace, nclients);
  QueryStats first_qs;
  {
    RangeGen gen(args.seed, 0, bands[0].first, bands[0].second, cx.span);
    const auto [lo, hi] = gen.Range();
    DoRead(Layer::kCore, eps[0], QueryKind::kCount, lo, hi, models[0],
           &checks, 0, &first_qs);
  }

  // ---- the fixed adaptation phase, then the timed window.
  std::vector<std::unique_ptr<Stream>> streams;
  for (size_t c = 0; c < nclients; ++c) {
    streams.push_back(std::make_unique<Stream>(trace, c));
  }
  std::atomic<bool> go{false};
  Gate gate;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < nclients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      RunStream(cx, eps[c], c, bands[c].first, bands[c].second, &gate,
                &models[c], streams[c].get());
    });
  }
  const double cpu_start = CpuSeconds();
  const int64_t t_start = Now();
  go.store(true, std::memory_order_release);
  while (gate.arrived.load() < nclients) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const int64_t t_window = Now();
  const double cpu_window = CpuSeconds();
  gate.deadline.store(t_window + cx.window_ns);
  for (auto& t : threads) t.join();
  const double adapt_s = static_cast<double>(t_window - t_start) / 1e9;
  const int64_t t_end = Now();
  const double cpu_end = CpuSeconds();
  const double window_s = static_cast<double>(t_end - t_window) / 1e9;

  // ---- counters right after the window.
  const size_t pieces_end = core->NumPieces();
  const adaptidx::LatchStats& bl = base->latch_stats();
  std::map<std::string, uint64_t> frame;
  if (spec.wire) {
    adaptidx::server::StatsMsg msg;
    Status s = state.clients[0]->Stats(&msg);
    checks.Tally("stats", s, true, "");
    for (const auto& [k, v] : msg.entries) frame[k] = v;
  }

  // ---- answer checks beyond the stream mix: MIN/MAX and RowIds by
  // property in every band, then whole-domain reconciliation against every
  // acknowledged write.
  const Layer top = spec.wire ? Layer::kWire : Layer::kSession;
  for (size_t c = 0; c < nclients; ++c) {
    RangeGen gen(args.seed, 1000 + c, bands[c].first, bands[c].second,
                 cx.span);
    for (int i = 0; i < 8; ++i) {
      auto [lo, hi] = gen.Range();
      DoRead(top, eps[c], QueryKind::kMinMax, lo, hi, models[c], &checks, 0,
             nullptr);
      std::tie(lo, hi) = gen.Range();
      DoRead(top, eps[c], QueryKind::kRowIds, lo, hi, models[c], &checks, 0,
             nullptr);
    }
  }
  {
    Expected want = BaseAnswer(spec.rows, 0, n);
    for (const Model& m : models) {
      want.count = static_cast<uint64_t>(static_cast<int64_t>(want.count) +
                                         m.count_delta());
      want.sum += m.sum_delta();
    }
    const Value lo = -(Value{1} << 62), hi = Value{1} << 62;
    for (QueryKind kind : {QueryKind::kCount, QueryKind::kSum}) {
      QueryResult res;
      QueryStats qs;
      Status s = ReadVia(top, eps[0], kind, lo, hi, &res, &qs);
      std::string why;
      const bool right =
          s.ok() && CheckAnswer(kind == QueryKind::kCount ? "count" : "sum",
                                want, res.count, res.sum, false, 0, 0, &why);
      checks.Tally(std::string("reconcile_") + adaptidx::ToString(kind), s,
                   right, why);
    }
  }
  // ---- aggregate.
  std::vector<const Stream*> all;
  for (const auto& st : streams) all.push_back(st.get());
  all.push_back(&checks);
  std::map<std::string, OpCount> ops;
  // stream_ops counts the window's operations only.
  uint64_t attempted = 0, failed = 0, wrong = 0, stream_ops = 0;
  std::string first_error;
  for (const Stream* st : all) {
    for (const auto& [k, c] : st->ops) {
      ops[k].attempted += c.attempted;
      ops[k].failed += c.failed;
      attempted += c.attempted;
      failed += c.failed;
    }
    wrong += st->wrong;
    stream_ops += st->ops_done - st->adapt_ops;
    if (first_error.empty()) first_error = st->first_error;
  }

  std::vector<Histogram> slice_reads(kSlices);
  std::vector<uint64_t> slice_ops(kSlices, 0);
  Histogram early, writes, span_reads;
  std::vector<int64_t> session_writes, stats_rtt;
  std::vector<const Probe*> stat_reads, stat_early, stat_late;
  std::vector<int64_t> session_ns, core_ns, core_late_ns, unattributed_late;
  for (const auto& st : streams) {
    early.Merge(st->early);
    span_reads.Merge(st->span_reads);
    writes.Merge(st->writes);
    for (int k = 0; k < kSlices; ++k) {
      slice_reads[k].Merge(st->slice_reads[k]);
      slice_ops[k] += st->slice_ops[k];
    }
    session_writes.insert(session_writes.end(), st->session_writes.begin(),
                          st->session_writes.end());
    stats_rtt.insert(stats_rtt.end(), st->stats_rtt.begin(),
                     st->stats_rtt.end());
    for (const auto* v : {&st->session_reads, &st->core_reads}) {
      for (const Probe& p : *v) {
        stat_reads.push_back(&p);
        if (Early(p.pos, *st)) stat_early.push_back(&p);
        if (Late(p.pos, *st)) stat_late.push_back(&p);
      }
    }
    for (const Probe& p : st->session_reads) {
      if (p.window) session_ns.push_back(p.ns);
    }
    for (const Probe& p : st->core_reads) {
      if (p.window) core_ns.push_back(p.ns);
      if (!Late(p.pos, *st)) continue;
      core_late_ns.push_back(p.ns);
      unattributed_late.push_back(p.ns - p.qs.wait_ns - p.qs.crack_ns -
                                  p.qs.read_ns - p.qs.init_ns);
    }
  }

  // Throughput and latency percentiles are medians over the window's
  // slices, so a few seconds of host noise do not decide them.
  const int64_t slice_ns = cx.window_ns / kSlices;
  Histogram reads, late;
  std::vector<double> setup_s, slice_rate, slice_p50, slice_p99, late_p99;
  for (int64_t ns : setup_ns) setup_s.push_back(static_cast<double>(ns) / 1e9);
  for (int k = 0; k < kSlices; ++k) {
    const int64_t b = k * slice_ns;
    const int64_t e = k == kSlices - 1 ? t_end - t_window : b + slice_ns;
    slice_rate.push_back(static_cast<double>(slice_ops[k]) /
                         (static_cast<double>(e - b) / 1e9));
    slice_p50.push_back(slice_reads[k].PctUs(0.50));
    slice_p99.push_back(slice_reads[k].PctUs(0.99));
    reads.Merge(slice_reads[k]);
    if (k >= kSlices - kLateSlices) {
      late.Merge(slice_reads[k]);
      late_p99.push_back(slice_p99.back());
    }
  }

  // The JSON line carries the metrics that stay steady on a shared host:
  // medians and CPU time. Throughput, tails and wall-clock adaptation time
  // follow the host's CPU steal (they swing 2-5x between runs on a 4-vCPU
  // VM), so they are printed in the report but not gated. The gated read
  // latency, CPU time and memory are taken over the measured span, the same
  // rounds of every stream: the program state they see (pending writes,
  // pieces) then does not depend on how many operations a slow or fast host
  // got through in the window.
  const bool spanned = gate.spanned.load() == nclients;
  if (!spanned) {  // a host too slow for the span: fall back to the window
    gate.span_end = t_end;
    gate.span_cpu = cpu_end;
    gate.span_rss_mb = PeakRssMb();
    gate.span_ops = stream_ops;
  }
  const double span_s = static_cast<double>(gate.span_end - t_window) / 1e9;
  const double cpu_per_op =
      (gate.span_cpu - cpu_window) * 1e6 /
      static_cast<double>(std::max<uint64_t>(gate.span_ops, 1));
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"read_p50_us", span_reads.PctUs(0.50), "us"},
      {"adapt_cpu_s", cpu_window - cpu_start, "s"},
      {"cpu_us_per_op", cpu_per_op, "us"},
      {"peak_rss_mb", gate.span_rss_mb, "MB"},
  };
  std::vector<Metric> report_only = {
      {"adapt_s", adapt_s, "s"},
      {"ops_per_s", Median(slice_rate), "1/s"},
      {"read_p99_us", Median(slice_p99), "us"},
      {"read_early_p50_us", early.PctUs(0.50), "us"},
      {"read_late_p50_us", late.PctUs(0.50), "us"},
      {"read_late_p99_us", Median(late_p99), "us"},
  };
  if (spec.durable) {
    report_only.push_back({"write_p50_us", writes.PctUs(0.50), "us"});
    report_only.push_back({"write_p99_us", writes.PctUs(0.99), "us"});
  }

  const adaptidx::LatchStats* side =
      spec.wire ? &served->latch_stats() : nullptr;
  auto frame_at = [&frame](const char* k) {
    auto it = frame.find(k);
    return it == frame.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double fsyncs = frame_at("wal.fsync_count");
  const double records = frame_at("wal.records_appended");
  const double session_p50 = PctUs(session_ns, 0.50);
  auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::vector<Metric> layers = {
      {"server.stats_rtt_p50_us", PctUs(stats_rtt, 0.50), "us"},
      {"server.read_overhead_p50_us",
       spec.wire ? reads.PctUs(0.50) - session_p50 : 0.0, "us"},
      {"server.write_overhead_p50_us",
       spec.durable ? writes.PctUs(0.50) - PctUs(session_writes, 0.50) : 0.0,
       "us"},
      {"server.admitted", frame_at("admission.admitted_total"), "count"},
      {"server.shed", frame_at("admission.shed_total"), "count"},
      {"engine.session_read_p50_us", session_p50, "us"},
      {"engine.session_read_p99_us", PctUs(session_ns, 0.99), "us"},
      {"engine.session_write_p50_us", PctUs(session_writes, 0.50), "us"},
      {"core.execute_p50_us", PctUs(core_ns, 0.50), "us"},
      {"core.execute_late_p50_us", PctUs(core_late_ns, 0.50), "us"},
      {"core.unattributed_late_us", PctUs(unattributed_late, 0.50), "us"},
      {"core.pieces_end", static_cast<double>(pieces_end), "count"},
      {"core.pieces_touched_per_read",
       Mean(stat_reads, [](const Probe& p) { return p.qs.pieces_touched; }),
       "count"},
      {"core.crack_us_per_read_early",
       Mean(stat_early, [](const Probe& p) { return p.qs.crack_ns / 1e3; }),
       "us"},
      {"core.init_ms", static_cast<double>(first_qs.init_ns) / 1e6, "ms"},
      {"core.scan_us_per_read_late",
       Mean(stat_late, [](const Probe& p) { return p.qs.read_ns / 1e3; }),
       "us"},
      {"core.delta_publishes",
       side ? static_cast<double>(side->delta_publishes()) : 0.0, "count"},
      {"core.delta_chain_max",
       side ? static_cast<double>(side->delta_chain_max()) : 0.0, "count"},
      {"core.consolidations",
       side ? static_cast<double>(side->consolidations()) : 0.0, "count"},
      {"latch.wait_us_per_read_early",
       Mean(stat_early, [](const Probe& p) { return p.qs.wait_ns / 1e3; }),
       "us"},
      {"latch.wait_us_per_read_late",
       Mean(stat_late, [](const Probe& p) { return p.qs.wait_ns / 1e3; }),
       "us"},
      {"latch.conflicts_per_read_early",
       Mean(stat_early,
            [](const Probe& p) { return static_cast<double>(p.qs.conflicts); }),
       "count"},
      {"latch.conflicts_per_read_late",
       Mean(stat_late,
            [](const Probe& p) { return static_cast<double>(p.qs.conflicts); }),
       "count"},
      {"latch.refine_skipped_per_read",
       Mean(stat_reads,
            [](const Probe& p) { return p.qs.refinement_skipped ? 1.0 : 0.0; }),
       "ratio"},
      {"latch.try_failures", static_cast<double>(bl.try_failures()), "count"},
      {"latch.side_write_wait_ms",
       side ? static_cast<double>(side->write_wait_ns()) / 1e6 : 0.0, "ms"},
      {"cracking.parallel_cracks", static_cast<double>(bl.parallel_cracks()),
       "count"},
      {"cracking.coarse_sort_hits", static_cast<double>(bl.coarse_sort_hits()),
       "count"},
      {"cracking.piece_lookups_snapshot",
       static_cast<double>(bl.piece_lookups_snapshot()), "count"},
      {"cracking.piece_lookups_locked",
       static_cast<double>(bl.piece_lookups_locked()), "count"},
      {"durability.fsyncs", fsyncs, "count"},
      {"durability.records_per_fsync", per(records, fsyncs), "count"},
      {"durability.bytes_per_record",
       per(frame_at("wal.bytes_written"), records), "B"},
  };

  // The counters above are read from the live program; only now stop it.
  probe_sessions.clear();
  state.Teardown();

  // ---- report.
  const bool correct = wrong == 0;
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d "
              "clients=%zu cpus=%s rows=%llu selectivity=%g\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, nclients, cpus.c_str(),
              static_cast<unsigned long long>(spec.rows), spec.selectivity);
  std::printf("# host %s\n", HostFingerprint().c_str());
  std::printf("# adaptation %zu rounds per stream in %.3f s; window %.3f s "
              "with %llu operations; %zu set-ups\n",
              spec.adapt_rounds, adapt_s, window_s,
              static_cast<unsigned long long>(stream_ops), setup_ns.size());
  std::printf("# measured span: the window's first %zu rounds per stream, "
              "%llu operations in %.3f s%s\n",
              spec.span_rounds, static_cast<unsigned long long>(gate.span_ops),
              span_s,
              spanned ? "" : " (NOT REACHED: the whole window is used instead)");
  std::printf("# %-24s %12s %8s\n", "operation", "attempted", "failed");
  for (const auto& [k, c] : ops) {
    std::printf("# %-24s %12llu %8llu\n", k.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  auto print = [](const char* group, const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      std::printf("# %-10s %-34s %16.4f %s\n", group, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  print(trace ? "traced" : "end2end", e2e);
  print(trace ? "traced" : "end2end", report_only);
  std::printf("# window slices' read p50 (us):");
  for (double v : slice_p50) std::printf(" %.1f", v);
  std::printf("\n");
  if (trace) {
    print("layer", layers);
    size_t spans = main_log.spans().size();
    for (const Stream* st : all) spans += st->log.spans().size();
    std::printf("# trace      %-34s %16zu count\n", "spans", spans);
    std::printf("# trace      %-34s %16.1f ns\n", "span_cost", SpanCostNs());
    const std::string path = args.out + "/spans-" + spec.name + ".jsonl";
    WriteSpans(path, all, main_log);
    std::printf("# trace      spans written to %s\n", path.c_str());
  }
  if (!correct) {
    std::printf("# WRONG ANSWERS: %llu; first: %s\n",
                static_cast<unsigned long long>(wrong), first_error.c_str());
  } else if (failed != 0) {
    std::printf("# failed operations; first: %s\n", first_error.c_str());
  }

  std::ostringstream js;
  js.precision(10);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  const std::vector<Metric>& out = trace ? layers : e2e;
  for (size_t i = 0; i < out.size(); ++i) {
    js << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
       << out[i].value << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--clients <k>] [--out <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
