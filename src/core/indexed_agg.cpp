#include "core/indexed_agg.h"

#include "mem/governor.h"
#include "sql/agg_internal.h"
#include "sql/session.h"

namespace idf {

Result<TableHandle> RowAggExec::ExecuteImpl(Session& session,
                                            QueryMetrics& metrics) const {
  using agg_internal::FindOrCreateGroup;
  using agg_internal::GroupMap;
  using agg_internal::GroupState;
  using agg_internal::ResolvedAggs;

  const std::shared_ptr<IndexedRdd>& rdd = indexed_->rdd();
  IDF_ASSIGN_OR_RETURN(ResolvedAggs resolved,
                       ResolvedAggs::Resolve(*rdd->schema(), group_by_, aggs_));
  return ShuffleAggregate(
      session, metrics, "row-direct partial aggregate", rdd->rdd_id(),
      rdd->num_partitions(), rdd->schema(), group_by_, aggs_, resolved,
      [&](TaskContext& ctx, uint32_t p, GroupMap& groups) -> Status {
        IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                             rdd->GetPartition(p, indexed_->version(), ctx));
        // Pin the partition's batches for the whole aggregation scan.
        mem::AccessScope scan_scope;
        const RowLayout& layout = part->layout();
        ctx.metrics().rows_read += part->num_rows();

        // Aggregate straight off the binary rows — no columnar detour.
        part->ForEachRow([&](const uint8_t* row) {
          RowVec key;
          key.reserve(resolved.group_idx.size());
          for (size_t g : resolved.group_idx) {
            key.push_back(layout.GetValue(row, g));
          }
          GroupState& state =
              FindOrCreateGroup(groups, std::move(key), aggs_.size());
          for (size_t a = 0; a < aggs_.size(); ++a) {
            const Value v =
                resolved.agg_idx[a] < 0
                    ? Value::Int64(1)
                    : layout.GetValue(row,
                                      static_cast<size_t>(resolved.agg_idx[a]));
            state.accums[a].AddValue(aggs_[a], v);
          }
        });
        return Status::OK();
      });
}

Result<PhysOpPtr> RowAggStrategy::TryPlan(const PlanPtr& plan,
                                          Planner& planner) const {
  (void)planner;
  if (plan->kind() != LogicalPlan::Kind::kAggregate) return PhysOpPtr(nullptr);
  const auto& agg = static_cast<const AggregateNode&>(*plan);
  if (agg.child()->kind() != LogicalPlan::Kind::kScan) {
    return PhysOpPtr(nullptr);
  }
  const auto& scan = static_cast<const ScanNode&>(*agg.child());
  auto indexed =
      std::dynamic_pointer_cast<const IndexedDataset>(scan.dataset());
  if (indexed == nullptr) return PhysOpPtr(nullptr);
  return PhysOpPtr(std::make_shared<RowAggExec>(std::move(indexed),
                                                agg.group_by(), agg.aggs()));
}

}  // namespace idf
