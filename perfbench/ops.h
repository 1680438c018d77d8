// The operations the workloads issue, each as the sequence of public layer
// calls it is made of. With spans attached, every call is wrapped in a span
// named after the layer that owns it, so a traced run can split each
// operation's latency into layer self times.
#pragma once

#include <memory>
#include <string>

#include "bench.h"
#include "core/indexed_rdd.h"

namespace perfbench {

/// Where an operation records: optional spans (traced run only) and the
/// QueryMetrics its layer calls return.
struct OpCtx {
  OpSpans* spans = nullptr;
  int parent = -1;
  idf::QueryMetrics metrics;
};

/// A span around one layer call; a no-op when the operation is untraced.
/// Makes itself the parent of spans opened while it is alive.
class SpanScope {
 public:
  SpanScope(OpCtx& ctx, const char* name, Layer layer);
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Ends the span now (idempotent).
  void Close();
  int index() const { return index_; }

 private:
  OpCtx& ctx_;
  int index_ = -1;
  int saved_parent_ = -1;
  bool open_ = false;
};

/// Plans `df` (Planner::Optimize + PlanNode), executes it
/// (PhysicalOp::Execute; the task compute it reports becomes a `core.task`
/// child span), and returns the cached result table.
idf::Result<idf::TableHandle> PlanAndExecute(const idf::DataFrame& df,
                                             OpCtx& ctx);

/// Session::Collect of a result, then its release (see ReleaseResult).
idf::Result<idf::CollectedTable> CollectAndRelease(idf::Session& session,
                                                   const idf::TableHandle& t,
                                                   OpCtx& ctx);

/// getRows: IndexLookupExec::Execute + Session::Collect on `dataset` — the
/// two calls IndexedDataFrame::GetRows makes — then the result's release.
idf::Result<idf::CollectedTable> Lookup(
    const std::shared_ptr<const idf::IndexedDataset>& dataset, int64_t key,
    OpCtx& ctx);

/// `SELECT * FROM <table> WHERE edge_source = <key>`: Session::Sql, then
/// plan, execute, collect.
idf::Result<idf::CollectedTable> SqlLookup(idf::Session& session,
                                           const std::string& table,
                                           int64_t key, OpCtx& ctx);

/// IndexedDataFrame::Join of `probe` on edge_source, planned, executed and
/// collected.
idf::Result<idf::CollectedTable> IndexedJoin(const idf::IndexedDataFrame& t,
                                             const idf::DataFrame& probe,
                                             OpCtx& ctx);

/// IndexedDataFrame::AppendRows; the shuffle and stage dispatch are the
/// engine's share, the insert tasks' compute the core's.
idf::Result<idf::IndexedDataFrame> Append(const idf::IndexedDataFrame& t,
                                          const idf::DataFrame& rows,
                                          OpCtx& ctx);

/// IndexedDataFrame::Create on edge_source.
idf::Result<idf::IndexedDataFrame> Build(const idf::DataFrame& edges,
                                         OpCtx& ctx);

/// Layer latencies the per-layer metrics take their medians from.
struct LayerSamples {
  Latencies admission_ms, driver_ms, parse_us, plan_us, collect_us,
      dispatch_us, append_ms;
  void Add(OpType op, const OpSpans& spans);
  void Append(const LayerSamples& o);
};

}  // namespace perfbench
