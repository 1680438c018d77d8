#include "ops.h"

#include <cstring>

#include "core/indexed_ops.h"
#include "mem/governor.h"

namespace perfbench {

using namespace idf;

SpanScope::SpanScope(OpCtx& ctx, const char* name, Layer layer) : ctx_(ctx) {
  if (ctx_.spans == nullptr) return;
  index_ = ctx_.spans->Begin(name, layer, ctx_.parent);
  saved_parent_ = ctx_.parent;
  ctx_.parent = index_;
  open_ = true;
}

void SpanScope::Close() {
  if (!open_) return;
  ctx_.spans->End(index_);
  ctx_.parent = saved_parent_;
  open_ = false;
}

namespace {

/// Runs an engine call that may read spilled payloads on this thread; a
/// failed reload surfaces as the query's status, as the engine's own entry
/// points do.
template <typename Fn>
auto CatchReload(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const mem::ReloadFault& fault) {
    return fault.status();
  }
}

/// Charges the task compute a call reported to a `core.task` tail span.
void AddTaskTail(OpCtx& ctx, int span, double compute_before) {
  if (ctx.spans == nullptr) return;
  const double compute = ctx.metrics.totals.compute_seconds - compute_before;
  ctx.spans->AddTail("core.task", kCore, span,
                     static_cast<int64_t>(compute * 1e9));
}

Result<TableHandle> ExecuteOp(Session& session, const PhysicalOp& op,
                              OpCtx& ctx) {
  const double before = ctx.metrics.totals.compute_seconds;
  SpanScope span(ctx, "engine.execute", kEngine);
  Result<TableHandle> out =
      CatchReload([&] { return op.Execute(session, ctx.metrics); });
  span.Close();
  AddTaskTail(ctx, span.index(), before);
  return out;
}

}  // namespace

Result<TableHandle> PlanAndExecute(const DataFrame& df, OpCtx& ctx) {
  Session& session = *df.session();
  PhysOpPtr op;
  {
    SpanScope span(ctx, "sql.plan", kSql);
    IDF_ASSIGN_OR_RETURN(PlanPtr optimized,
                         session.planner().Optimize(df.plan()));
    IDF_ASSIGN_OR_RETURN(op, session.planner().PlanNode(optimized));
  }
  return ExecuteOp(session, *op, ctx);
}

Result<CollectedTable> CollectAndRelease(Session& session,
                                         const TableHandle& t, OpCtx& ctx) {
  Result<CollectedTable> out = [&] {
    SpanScope span(ctx, "sql.collect", kSql);
    return CatchReload([&] { return session.Collect(t); });
  }();
  SpanScope span(ctx, "engine.release", kEngine);
  ReleaseResult(session, t);
  return out;
}

Result<CollectedTable> Lookup(
    const std::shared_ptr<const IndexedDataset>& dataset, int64_t key,
    OpCtx& ctx) {
  Session& session = dataset->rdd()->session();
  IndexLookupExec op(dataset, Value::Int64(key), /*residual=*/nullptr);
  IDF_ASSIGN_OR_RETURN(TableHandle t, ExecuteOp(session, op, ctx));
  return CollectAndRelease(session, t, ctx);
}

Result<CollectedTable> SqlLookup(Session& session, const std::string& table,
                                 int64_t key, OpCtx& ctx) {
  Result<DataFrame> df = [&] {
    SpanScope span(ctx, "sql.parse", kSql);
    return session.Sql("SELECT * FROM " + table +
                       " WHERE edge_source = " + std::to_string(key));
  }();
  IDF_RETURN_IF_ERROR(df.status());
  IDF_ASSIGN_OR_RETURN(TableHandle t, PlanAndExecute(*df, ctx));
  return CollectAndRelease(session, t, ctx);
}

Result<CollectedTable> IndexedJoin(const IndexedDataFrame& t,
                                   const DataFrame& probe, OpCtx& ctx) {
  DataFrame joined = t.Join(probe, "edge_source");
  IDF_ASSIGN_OR_RETURN(TableHandle out, PlanAndExecute(joined, ctx));
  return CollectAndRelease(*joined.session(), out, ctx);
}

Result<IndexedDataFrame> Append(const IndexedDataFrame& t,
                                const DataFrame& rows, OpCtx& ctx) {
  const double before = ctx.metrics.totals.compute_seconds;
  SpanScope span(ctx, "engine.append", kEngine);
  Result<IndexedDataFrame> out =
      CatchReload([&] { return t.AppendRows(rows, &ctx.metrics); });
  span.Close();
  AddTaskTail(ctx, span.index(), before);
  return out;
}

Result<IndexedDataFrame> Build(const DataFrame& edges, OpCtx& ctx) {
  const double before = ctx.metrics.totals.compute_seconds;
  SpanScope span(ctx, "engine.build", kEngine);
  Result<IndexedDataFrame> out = CatchReload([&] {
    return IndexedDataFrame::Create(edges, "edge_source", IndexOptions{},
                                    &ctx.metrics);
  });
  span.Close();
  AddTaskTail(ctx, span.index(), before);
  return out;
}

void LayerSamples::Add(OpType op, const OpSpans& spans) {
  const std::vector<Span>& s = spans.spans();
  for (size_t i = 0; i < s.size(); ++i) {
    const double us = spans.DurationUs(static_cast<int>(i));
    if (std::strcmp(s[i].name, "server.admission") == 0) {
      admission_ms.Add(us / 1e3);
    } else if (std::strcmp(s[i].name, "server.driver") == 0) {
      driver_ms.Add(us / 1e3);
    } else if (std::strcmp(s[i].name, "sql.parse") == 0) {
      parse_us.Add(us);
    } else if (std::strcmp(s[i].name, "sql.plan") == 0) {
      plan_us.Add(us);
    } else if (std::strcmp(s[i].name, "sql.collect") == 0) {
      collect_us.Add(us);
    } else if (std::strcmp(s[i].name, "engine.append") == 0) {
      append_ms.Add(us / 1e3);
    } else if (op == kOpLookup && std::strcmp(s[i].name, "core.task") == 0) {
      // A lookup runs one task: execute wall minus its compute is the
      // engine's dispatch (stage plan, residency snapshot, DES, queueing).
      dispatch_us.Add(spans.DurationUs(s[i].parent) - us);
    }
  }
}

void LayerSamples::Append(const LayerSamples& o) {
  admission_ms.Append(o.admission_ms);
  driver_ms.Append(o.driver_ms);
  parse_us.Append(o.parse_us);
  plan_us.Append(o.plan_us);
  collect_us.Append(o.collect_us);
  dispatch_us.Append(o.dispatch_us);
  append_ms.Append(o.append_ms);
}

}  // namespace perfbench
