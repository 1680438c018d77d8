// Shared pieces of the benchmark driver: run options, the metric sheet,
// latency samples, result digests, the serial ground truth, and the span
// recorder of the traced run.
//
// The benchmark times only public calls into the engine's layers, from
// outside; nothing here reaches into src/ beyond its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/indexed_dataframe.h"
#include "workload/snb.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Everything a run is parameterised by. Sizes come from the workload and
/// `tiny` (the correctness-only scale of the benchmark's own self-test).
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";  // spans and spill files go below this
};

/// Named metrics with units, in print order.
class MetricSheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (values_.count(name) == 0) order_.push_back(name);
    values_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string ToJson() const;
  void Print() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Run context printed next to every result.
struct RunContext {
  uint64_t rows = 0;
  uint64_t distinct_keys = 0;
  uint32_t clients = 0;
  uint64_t governed_table_bytes = 0;
  uint64_t budget_bytes = 0;
  uint64_t probe_rows = 0;
  std::vector<double> setup_samples_s;  // every set-up, first one cold
  std::vector<uint64_t> setup_minor_faults;  // page faults of each set-up
  double serving_steal_pct = 0;  // host steal during the measured serving
  int quiet_windows = 0;         // serving windows the metrics come from
};

/// Operation outcomes; a rejected or errored query counts as failed, a
/// wrong result makes the whole run incorrect.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> first_errors;  // at most a few, for the log

  void Merge(const Outcome& o);
  void Fail(const std::string& what);
  void Mismatch(const std::string& what);
};

/// Latency sample with exact order statistics. Values may carry the host
/// CPU steal (clock ticks) seen while they were measured.
class Latencies {
 public:
  void Add(double v) { values_.push_back(v); }
  void Add(double v, uint64_t steal) {
    values_.push_back(v);
    steal_.push_back(steal);
  }
  void Append(const Latencies& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile; 0 on an empty sample.
  double Quantile(double q) const;
  /// Interquartile mean: the mean of the middle half of the values. As
  /// robust to outliers as the median, with less run-to-run spread.
  double MidMean() const;
  /// MidMean of the values measured with at most the median steal, when
  /// every value carries its steal.
  double QuietMidMean() const;

 private:
  std::vector<double> values_;
  std::vector<uint64_t> steal_;
};

// ---- digests --------------------------------------------------------------

/// Order-sensitive hash of one row's values (column order matters).
uint64_t RowHash(const idf::RowVec& row, uint64_t seed = 0);

/// Sorted-row digest of a multiset of row hashes: the same rows in any
/// order give the same digest.
uint64_t DigestOfHashes(std::vector<uint64_t> hashes);

/// Sorted-row digest of a collected result.
uint64_t DigestOf(const idf::CollectedTable& table);

// ---- ground truth ---------------------------------------------------------

/// Serial ground truth for the edge table, computed from the generator's
/// rows alone (never through the engine): per-row hashes grouped by source
/// key, and the expected result of the scan-aggregate query.
struct EdgeTruth {
  /// The scan-aggregate query keeps edges created after this instant.
  static constexpr int64_t kScanCreatedAfter = 1577836800 + 86400 * 300;

  std::vector<uint64_t> row_hash;                  // row index -> RowHash
  std::vector<std::vector<uint32_t>> rows_of_key;  // key -> row indices
  std::vector<uint64_t> key_digest;                // key -> lookup digest
  uint64_t scan_agg_digest = 0;

  void Build(const idf::SnbGenerator& gen);
  /// Digest of every row with `key`, plus `extra` row hashes (the rows of
  /// appended batches that carry `key`).
  uint64_t LookupDigest(int64_t key,
                        const std::vector<uint64_t>& extra = {}) const;
  /// Digest of `table JOIN probe ON table.edge_source = probe.edge_source`,
  /// table columns first.
  uint64_t JoinDigest(const std::vector<idf::RowVec>& probe) const;
};

/// Row hashes of appended batches, grouped by source key.
using HashesByKey = std::map<int64_t, std::vector<uint64_t>>;
void AddHashesByKey(const std::vector<idf::RowVec>& rows, HashesByKey& out);

/// Rows of a DataFrame, gathered once at set-up (probe and append inputs).
std::vector<idf::RowVec> RowsOf(const idf::DataFrame& df);

/// A cached input table of the indexed session with its rows.
struct InputTable {
  idf::DataFrame df;
  std::vector<idf::RowVec> rows;
  uint64_t digest = 0;  // expected join digest (probes)
  int64_t key = 0;      // read-back key (append batches)
};

/// `count` EdgeSample probes of `rows` rows each, with their join truth.
std::vector<InputTable> MakeProbes(const idf::SnbGenerator& gen,
                                   const EdgeTruth& truth,
                                   idf::Session& session, uint32_t count,
                                   uint64_t rows, uint64_t seed);

/// `count` batches of `rows` new edges, drawn from the generator past the
/// table's last row starting at `first_row`.
std::vector<InputTable> MakeAppendBatches(const idf::SnbGenerator& gen,
                                          idf::Session& session,
                                          uint32_t count, uint64_t rows,
                                          uint64_t first_row,
                                          const std::string& name);

// ---- traced run -------------------------------------------------------------

/// Operation types of the layer breakdown.
enum OpType : int {
  kOpLookup, kOpSqlLookup, kOpJoin, kOpAppend, kOpBuild, kOpIndexedJoin,
  kOpHashJoin, kOpSortMergeJoin, kOpScanAgg, kNumOpTypes
};
const char* OpTypeName(int op);

/// Layers a span's self time is charged to; the root span's self time is
/// the explicit unattributed remainder.
enum Layer : int { kServer, kSql, kEngine, kCore, kUnattributed, kNumLayers };
const char* LayerName(int layer);

/// One span: a named interval under a parent, within one operation.
struct Span {
  uint32_t op_id = 0;
  int16_t layer = kUnattributed;
  int16_t parent = -1;  // index within the operation, -1 for the root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of one operation. An operation's spans may be written from two
/// threads (client and query driver), but never at the same time: the
/// query service's submit/wait hand-off orders them.
class OpSpans {
 public:
  /// Starts a span now; returns its index.
  int Begin(const char* name, Layer layer, int parent);
  void End(int span) { spans_[span].end_ns = NowNs(); }
  /// Adds a finished child of `parent` covering the last `ns` of it, for
  /// time a call reports about itself (task compute inside an execute).
  void AddTail(const char* name, Layer layer, int parent, int64_t ns);
  /// Duration of span `i`, in microseconds.
  double DurationUs(int i) const {
    return (spans_[i].end_ns - spans_[i].start_ns) / 1e3;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
};

/// Per-thread accumulation of finished operations: layer self times per
/// operation type, plus a bounded buffer of raw spans written at exit.
class TraceSink {
 public:
  explicit TraceSink(size_t max_spans = 60000) : max_spans_(max_spans) {}
  /// Folds one finished operation (root span = index 0) into the totals.
  void Record(OpType op, OpSpans& spans);
  void Merge(const TraceSink& o);

  uint64_t ops(int op) const { return ops_[op]; }
  double self_us(int op, int layer) const { return self_us_[op][layer]; }
  double latency_us(int op) const { return latency_us_[op]; }
  /// Largest |sum of self times - latency| of any one operation, in us.
  double max_conservation_error_us() const { return max_error_us_; }
  /// Child spans found outside their parent's interval.
  uint64_t nesting_violations() const { return nesting_violations_; }
  const std::vector<Span>& raw() const { return raw_; }

 private:
  size_t max_spans_;
  uint64_t next_op_id_ = 0;
  uint64_t ops_[kNumOpTypes] = {};
  double latency_us_[kNumOpTypes] = {};
  double self_us_[kNumOpTypes][kNumLayers] = {};
  double max_error_us_ = 0;
  uint64_t nesting_violations_ = 0;
  std::vector<Span> raw_;  // the first max_spans_ spans, written at exit
};

/// Per-layer metrics of the traced breakdown, plus the conservation check:
/// per operation type, layer self times + unattributed == latency.
/// Returns false (and logs) when conservation fails.
bool ReportBreakdown(const TraceSink& sink, MetricSheet& sheet);

/// Writes the raw spans as JSON lines.
void WriteSpans(const TraceSink& sink, const std::string& path);

// ---- engine helpers ----------------------------------------------------------

/// The cluster every workload runs on: 2 workers x 2 executors x 2 cores,
/// 8 partitions (4 host cores).
idf::SessionOptions BaseSessionOptions();

/// Releases a query's cached result table. The engine keeps every executed
/// query's output in its block manager until the session ends; a serving
/// client releases what it has read, or the host runs out of memory.
void ReleaseResult(idf::Session& session, const idf::TableHandle& handle);

/// Drops the cached partitions of one appended version. The engine never
/// retires a version; a client that has read back what it appended drops it,
/// or a serving run's memory grows with every append (see README.md).
void RetireVersion(const idf::IndexedDataFrame& version);

/// Drops, when it goes out of scope, the cached output of every query run
/// on `session` while it was alive (results and intermediates alike), except
/// the RDD named by Keep(). Safe only while no other thread runs queries on
/// the session: it tells queries apart by the RDD ids they allocated.
class OutputScope {
 public:
  explicit OutputScope(idf::Session& session)
      : session_(session), first_(session.cluster().NewRddId()) {}
  ~OutputScope();
  OutputScope(const OutputScope&) = delete;
  OutputScope& operator=(const OutputScope&) = delete;

  void Keep(uint64_t rdd) { keep_ = rdd; }

 private:
  idf::Session& session_;
  uint64_t first_;
  uint64_t keep_ = 0;
};

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
/// Current resident set size (VmRSS), in MB.
double RssMb();
/// Minor page faults of this process so far.
uint64_t MinorFaults();
/// CPU time the hypervisor has taken from this machine's CPUs ("steal" in
/// /proc/stat), and all CPU time, in clock ticks.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Bytes below `dir`, recursively (0 when missing).
uint64_t DirBytes(const std::string& dir);

// ---- workloads -----------------------------------------------------------------

/// point_lookup and mixed_spill.
bool RunServing(const RunOptions& opt, MetricSheet& sheet, RunContext& ctx,
                Outcome& outcome);
/// batch_analytics.
bool RunBatchWorkload(const RunOptions& opt, MetricSheet& sheet,
                      RunContext& ctx, Outcome& outcome);

}  // namespace perfbench
