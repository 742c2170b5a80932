#include "dataflow/engine.h"

#include <algorithm>
#include <set>

#include "dataflow/stamp.h"

namespace tioga2::dataflow {

Result<BoxEvaluation> FireOrAdopt(const Box& box, const std::string& box_id,
                                  const std::vector<Edge>& inputs,
                                  const std::vector<MemoCache::EntryPtr>& upstream,
                                  const ExecContext& ctx, MemoCache& cache,
                                  SharedMemoCache* shared) {
  uint64_t stamp = BoxSignature(box, ctx);
  for (size_t port = 0; port < inputs.size(); ++port) {
    const Edge& edge = inputs[port];
    if (edge.from_port >= upstream[port]->outputs.size()) {
      return Status::Internal("box '" + edge.from_box + "' produced no output " +
                              std::to_string(edge.from_port));
    }
    stamp = FoldInputStamp(stamp, upstream[port]->stamp, edge.from_port, port);
  }

  if (MemoCache::EntryPtr cached = cache.Lookup(box_id, stamp)) {
    return BoxEvaluation{std::move(cached), BoxOutcome::kLocalHit};
  }
  // Local miss: another session may have evaluated an identical subgraph —
  // stamps are content-addressed, so a shared-tier entry under this stamp is
  // byte-identical to what firing would produce. Adopt it into the local
  // cache (sharing the allocation) instead of firing.
  if (shared != nullptr) {
    if (MemoCache::EntryPtr adopted = shared->Lookup(stamp)) {
      return BoxEvaluation{cache.InsertEntry(box_id, std::move(adopted)),
                           BoxOutcome::kSharedHit};
    }
  }

  // Miss in both tiers: coerce the inputs and fire.
  std::vector<PortType> input_types = box.InputTypes();
  std::vector<BoxValue> values;
  values.reserve(input_types.size());
  for (size_t port = 0; port < input_types.size(); ++port) {
    TIOGA2_ASSIGN_OR_RETURN(
        BoxValue coerced,
        CoerceBoxValue(upstream[port]->outputs[inputs[port].from_port],
                       input_types[port]));
    values.push_back(std::move(coerced));
  }
  TIOGA2_ASSIGN_OR_RETURN(std::vector<BoxValue> outputs, box.Fire(values, ctx));
  size_t declared = box.OutputTypes().size();
  if (outputs.size() != declared) {
    return Status::Internal("box '" + box_id + "' (" + box.type_name() + ") fired " +
                            std::to_string(outputs.size()) + " outputs, declared " +
                            std::to_string(declared));
  }
  MemoCache::EntryPtr stored = cache.Insert(box_id, stamp, std::move(outputs));
  if (shared != nullptr) shared->Insert(stored);
  return BoxEvaluation{std::move(stored), BoxOutcome::kFired};
}

Result<std::vector<std::string>> RunnableBoxes(const Graph& graph,
                                               EngineStats* stats,
                                               std::vector<std::string>* warnings) {
  TIOGA2_ASSIGN_OR_RETURN(std::vector<std::string> order, graph.TopologicalOrder());
  std::vector<std::string> blocked = graph.BoxesWithDanglingInputs();
  auto is_blocked = [&](const std::string& id) {
    return std::find(blocked.begin(), blocked.end(), id) != blocked.end();
  };
  std::vector<std::string> runnable;
  for (const std::string& id : order) {
    if (is_blocked(id)) {
      ++stats->boxes_skipped;
      warnings->push_back("EvaluateAll: skipped box '" + id +
                          "' (dangling input, cannot fire)");
      continue;
    }
    TIOGA2_ASSIGN_OR_RETURN(const Box* box, graph.GetBox(id));
    bool upstream_blocked = false;
    size_t num_inputs = box->InputTypes().size();
    for (size_t port = 0; port < num_inputs; ++port) {
      std::optional<Edge> edge = graph.IncomingEdge(id, port);
      if (edge.has_value() && is_blocked(edge->from_box)) upstream_blocked = true;
    }
    if (upstream_blocked) {
      blocked.push_back(id);
      ++stats->boxes_skipped;
      warnings->push_back("EvaluateAll: skipped box '" + id +
                          "' (upstream of it has a dangling input)");
      continue;
    }
    runnable.push_back(id);
  }
  return runnable;
}

std::vector<std::string> BoxesDownstreamOfTable(const Graph& graph,
                                                const std::string& table) {
  // Source boxes reading `table`, then the transitive downstream closure.
  std::set<std::string> affected;
  std::vector<std::string> frontier;
  for (const std::string& id : graph.BoxIds()) {
    Result<const Box*> box = graph.GetBox(id);
    if (!box.ok()) continue;
    if (box.value()->type_name() != "Table") continue;
    auto params = box.value()->Params();
    auto it = params.find("table");
    if (it != params.end() && it->second == table) {
      affected.insert(id);
      frontier.push_back(id);
    }
  }
  while (!frontier.empty()) {
    std::string id = std::move(frontier.back());
    frontier.pop_back();
    for (const Edge& edge : graph.OutgoingEdges(id)) {
      if (affected.insert(edge.to_box).second) frontier.push_back(edge.to_box);
    }
  }
  return std::vector<std::string>(affected.begin(), affected.end());
}

Result<InvalidationResult> InvalidateCache(
    const Graph& graph, const db::Catalog* catalog, const Invalidation& inv,
    MemoCache& cache, const db::ExecPolicy& policy,
    const std::vector<BoxValue>* encap_inputs) {
  InvalidationResult result;
  switch (inv.scope()) {
    case Invalidation::Scope::kAll:
      result.entries_evicted = cache.size();
      cache.Clear();
      return result;
    case Invalidation::Scope::kDownstreamOf:
      for (const std::string& id : BoxesDownstreamOfTable(graph, inv.table())) {
        if (cache.StampOf(id).has_value()) {
          cache.Erase(id);
          ++result.entries_evicted;
        }
      }
      return result;
    case Invalidation::Scope::kDelta:
      return PropagateDelta(graph, catalog, inv.delta(), cache, policy,
                            encap_inputs);
  }
  return Status::Internal("unknown invalidation scope");
}

Result<MemoCache::EntryPtr> Engine::EvaluateBox(
    const Graph& graph, const std::string& box_id,
    std::vector<std::string>* eval_stack) {
  if (std::find(eval_stack->begin(), eval_stack->end(), box_id) != eval_stack->end()) {
    return Status::Internal("cycle through box '" + box_id + "' during evaluation");
  }
  TIOGA2_ASSIGN_OR_RETURN(const Box* box, graph.GetBox(box_id));

  // Evaluate inputs first (depth first, in port order).
  eval_stack->push_back(box_id);
  size_t num_inputs = box->InputTypes().size();
  std::vector<Edge> inputs;
  std::vector<MemoCache::EntryPtr> upstream;
  inputs.reserve(num_inputs);
  upstream.reserve(num_inputs);
  for (size_t port = 0; port < num_inputs; ++port) {
    std::optional<Edge> edge = graph.IncomingEdge(box_id, port);
    if (!edge.has_value()) {
      eval_stack->pop_back();
      return Status::FailedPrecondition("box '" + box_id + "' (" + box->type_name() +
                                        ") input " + std::to_string(port) +
                                        " is not connected");
    }
    Result<MemoCache::EntryPtr> entry = EvaluateBox(graph, edge->from_box, eval_stack);
    if (!entry.ok()) {
      eval_stack->pop_back();
      return entry.status();
    }
    upstream.push_back(std::move(entry).value());
    inputs.push_back(std::move(*edge));
  }
  eval_stack->pop_back();

  ExecContext ctx;
  ctx.catalog = catalog_;
  ctx.encap_inputs = encap_inputs_;
  ctx.policy = policy_.value_or(db::DefaultExecPolicy());
  Result<BoxEvaluation> evaluated =
      FireOrAdopt(*box, box_id, inputs, upstream, ctx, *cache_, shared_cache_);
  for (std::string& warning : ctx.warnings) warnings_.push_back(std::move(warning));
  TIOGA2_RETURN_IF_ERROR(evaluated.status());
  stats_.Record(evaluated->outcome);
  return std::move(evaluated->entry);
}

Result<BoxValue> Engine::Evaluate(const Graph& graph, const std::string& box_id,
                                  size_t output_port) {
  ++stats_.evaluations;
  warnings_.clear();
  std::vector<std::string> eval_stack;
  TIOGA2_ASSIGN_OR_RETURN(MemoCache::EntryPtr entry,
                          EvaluateBox(graph, box_id, &eval_stack));
  if (output_port >= entry->outputs.size()) {
    return Status::OutOfRange("box '" + box_id + "' has no output " +
                              std::to_string(output_port));
  }
  return entry->outputs[output_port];
}

Status Engine::EvaluateAll(const Graph& graph) {
  ++stats_.evaluations;
  warnings_.clear();
  TIOGA2_ASSIGN_OR_RETURN(std::vector<std::string> runnable,
                          RunnableBoxes(graph, &stats_, &warnings_));
  for (const std::string& id : runnable) {
    std::vector<std::string> eval_stack;
    TIOGA2_RETURN_IF_ERROR(EvaluateBox(graph, id, &eval_stack).status());
  }
  return Status::OK();
}

Result<InvalidationResult> Engine::Invalidate(const Graph& graph,
                                              const Invalidation& inv) {
  TIOGA2_ASSIGN_OR_RETURN(
      InvalidationResult result,
      InvalidateCache(graph, catalog_, inv, *cache_,
                      policy_.value_or(db::DefaultExecPolicy()), encap_inputs_));
  stats_.deltas_applied += result.deltas_applied;
  stats_.delta_fallbacks += result.delta_fallbacks;
  warnings_.insert(warnings_.end(), result.warnings.begin(), result.warnings.end());
  return result;
}

}  // namespace tioga2::dataflow
