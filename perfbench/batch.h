// The batch operator suite: one driver thread, no query service. One cycle
// joins a large probe three ways (indexed, shuffled hash, sort-merge; the
// vanilla two in their own sessions with broadcast disabled), runs small
// indexed joins, a chain of appends, point and SQL lookups against the
// chain's tip, and a columnar filter+aggregate. batch_analytics runs cycles
// for the whole measured time, each on a freshly built index; the serving
// workloads run a few cycles after their serving phase, on their own table,
// so every workload reports every end-to-end metric in its own regime.
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "ops.h"

namespace perfbench {

/// Small probes made per run: a probe of 20 uniform keys varies several-fold
/// in output size, so medians over many distinct probes keep the seed from
/// deciding join_p50_ms.
constexpr uint32_t kSmallProbes = 256;

struct BatchParams {
  uint64_t probe_rows = 2000;      // large-join probe
  uint32_t large_join_reps = 3;    // each large join, per cycle
  uint32_t small_joins = 128;      // small-probe indexed joins per cycle
  uint64_t small_probe_rows = 20;
  uint32_t chain_appends = 40;
  uint64_t rows_per_append = 5000;
  uint32_t tip_lookups = 1000;
  uint32_t sql_lookups = 200;
};

/// Samples of every cycle run so far.
struct BatchSamples {
  Latencies build_s, indexed_join_ms, hash_join_ms, sortmerge_join_ms,
      small_join_ms, append_ms, append_rows_per_s, tip_lookup_ms,
      sql_lookup_ms, scan_agg_ms, hash_build_ms;
  uint64_t build_rows = 0;
  uint64_t point_queries = 0;
  double point_query_s = 0;
  // Summed QueryMetrics of the large joins and the scan.
  uint64_t rows_read = 0, rows_out = 0;
  uint64_t index_probes = 0, index_hits = 0;
  uint64_t batch_copies = 0, appends = 0;
  double simulated_s = 0;
  uint64_t ops = 0, stages = 0;  // every operation, and its engine stages
  uint32_t cycles = 0;
};

class BatchSuite {
 public:
  /// Creates the inputs of a cycle in `session` (the indexed session, whose
  /// plain edge table is `edges`), plus the hash and sort-merge sessions
  /// with their own copies of the edge table and the large probe.
  /// `trace_point_ops` false leaves the cycle's lookups, small joins and
  /// appends out of the trace.
  BatchSuite(const idf::SnbGenerator& gen, const EdgeTruth& truth,
             idf::Session& session, const idf::DataFrame& edges,
             const BatchParams& params, uint64_t seed, bool trace_point_ops);
  ~BatchSuite();

  /// Builds a fresh index over the edge table (timed as `build`).
  idf::Result<idf::IndexedDataFrame> BuildIndex(TraceSink* sink,
                                                Outcome& outcome);

  /// One cycle against `table`. Appends are chained onto `table`.
  void RunCycle(const idf::IndexedDataFrame& table, TraceSink* sink,
                Outcome& outcome);

  const BatchSamples& samples() const { return samples_; }
  /// Layer latencies of the traced cycles.
  const LayerSamples& layers() const { return layers_; }

 private:
  struct Vanilla;  // a session with its own edge table and probe

  /// Plans, executes (timed) and verifies one large join.
  void LargeJoin(const idf::DataFrame& joined, OpType op, Latencies& out_ms,
                 TraceSink* sink, Outcome& outcome);

  const idf::SnbGenerator& gen_;
  const EdgeTruth& truth_;
  idf::Session& session_;
  idf::DataFrame edges_;
  BatchParams params_;
  bool trace_point_ops_;
  InputTable probe_;
  std::vector<InputTable> small_probes_;
  size_t next_probe_ = 0;
  std::vector<InputTable> chain_;
  HashesByKey chain_hashes_;
  std::unique_ptr<Vanilla> hash_, sortmerge_;
  idf::Rng rng_;
  BatchSamples samples_;
  LayerSamples layers_;
};

/// The end-to-end metrics a batch cycle measures.
void ReportBatch(const BatchSamples& s, MetricSheet& sheet);

}  // namespace perfbench
