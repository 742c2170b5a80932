#include "runtime/parallel_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>


namespace tioga2::runtime {

using dataflow::Box;
using dataflow::BoxValue;
using dataflow::Edge;
using dataflow::Graph;
using dataflow::MemoCache;

/// The immutable dependency structure of one evaluation: for every box in
/// the transitive input closure of the targets, its resolved input edges (in
/// port order) and the boxes that consume it (one entry per consuming edge).
struct ParallelEngine::Plan {
  struct Node {
    const Box* box = nullptr;
    std::vector<Edge> inputs;
    std::vector<std::string> dependents;
  };
  std::unordered_map<std::string, Node> nodes;
};

/// The mutable scheduler state, shared between the calling thread and pool
/// tickets. Heap-allocated (shared_ptr) because a stale ticket may run after
/// RunPlan returns; such a ticket finds `ready` empty and touches nothing
/// else.
struct ParallelEngine::RunState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::string> ready;
  size_t running = 0;
  std::unordered_map<std::string, size_t> deps;
  std::unordered_map<std::string, MemoCache::EntryPtr> done;
  bool has_error = false;
  Status error;
  // (box id, warning) pairs; sorted before reporting so the output is
  // deterministic regardless of the firing interleaving.
  std::vector<std::pair<std::string, std::string>> fire_warnings;
};

Status ParallelEngine::BuildPlan(const Graph& graph,
                                 const std::vector<std::string>& targets,
                                 Plan* plan) const {
  // Depth-first in port order, matching the serial Engine's traversal so a
  // dangling input is reported with the same message for the same box.
  std::function<Status(const std::string&)> visit =
      [&](const std::string& id) -> Status {
    if (plan->nodes.count(id) > 0) return Status::OK();
    TIOGA2_ASSIGN_OR_RETURN(const Box* box, graph.GetBox(id));
    plan->nodes.emplace(id, Plan::Node{});  // dedup marker; filled below
    Plan::Node node;
    node.box = box;
    size_t num_inputs = box->InputTypes().size();
    for (size_t port = 0; port < num_inputs; ++port) {
      std::optional<Edge> edge = graph.IncomingEdge(id, port);
      if (!edge.has_value()) {
        return Status::FailedPrecondition(
            "box '" + id + "' (" + box->type_name() + ") input " +
            std::to_string(port) + " is not connected");
      }
      node.inputs.push_back(*edge);
      TIOGA2_RETURN_IF_ERROR(visit(edge->from_box));
    }
    plan->nodes[id] = std::move(node);
    return Status::OK();
  };
  for (const std::string& target : targets) {
    TIOGA2_RETURN_IF_ERROR(visit(target));
  }
  for (auto& [id, node] : plan->nodes) {
    for (const Edge& edge : node.inputs) {
      plan->nodes.at(edge.from_box).dependents.push_back(id);
    }
  }
  return Status::OK();
}

std::function<void()> ParallelEngine::MakeTicket(
    Plan* plan, std::shared_ptr<RunState> state) {
  return [this, plan, state = std::move(state)] {
    std::string id;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->ready.empty()) return;
      id = std::move(state->ready.front());
      state->ready.pop_front();
      ++state->running;
    }
    // A claimed box means RunPlan is still waiting on this state, so `this`
    // and `plan` are alive.
    FireBox(plan, state, id);
  };
}

void ParallelEngine::FireBox(Plan* plan,
                             const std::shared_ptr<RunState>& state,
                             const std::string& box_id) {
  const Plan::Node& node = plan->nodes.at(box_id);
  std::vector<MemoCache::EntryPtr> upstream;
  bool aborted = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    aborted = state->has_error;
    if (!aborted) {
      upstream.reserve(node.inputs.size());
      for (const Edge& edge : node.inputs) {
        upstream.push_back(state->done.at(edge.from_box));
      }
    }
  }

  dataflow::ExecContext ctx;
  ctx.catalog = catalog_;
  ctx.policy = policy_.value_or(db::DefaultExecPolicy());
  // Lend the box our own pool for intra-operator morsel fan-out. Safe even
  // though this box is itself running on a pool worker: ForEachMorsel's
  // submitter claims morsels too and never blocks on pool capacity
  // (db/morsel.h), so inter-box and intra-box work share the workers
  // without the scheduler deadlocking.
  if (ctx.policy.runner == nullptr) ctx.policy.runner = pool_;
  Result<dataflow::BoxEvaluation> evaluated = dataflow::BoxEvaluation{};
  if (!aborted) {
    auto start = std::chrono::steady_clock::now();
    evaluated = dataflow::FireOrAdopt(*node.box, box_id, node.inputs, upstream,
                                      ctx, *cache_, shared_cache_);
    if (metrics_ != nullptr && evaluated.ok()) {
      if (evaluated->outcome == dataflow::BoxOutcome::kFired) {
        metrics_->RecordCacheMiss();
        metrics_->RecordBoxFire(node.box->type_name(),
                                std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
      } else {
        metrics_->RecordCacheHit();
      }
    }
  }

  size_t newly_ready = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    for (std::string& warning : ctx.warnings) {
      state->fire_warnings.emplace_back(box_id, std::move(warning));
    }
    if (aborted) {
      // An earlier box failed; this one never ran.
    } else if (!evaluated.ok()) {
      if (!state->has_error) {
        state->has_error = true;
        state->error = evaluated.status();
      }
    } else {
      stats_.Record(evaluated->outcome);
      state->done[box_id] = evaluated->entry;
      if (!state->has_error) {
        for (const std::string& dependent : node.dependents) {
          if (--state->deps.at(dependent) == 0) {
            state->ready.push_back(dependent);
            ++newly_ready;
          }
        }
      }
    }
    --state->running;
    state->cv.notify_all();
  }
  // One ticket per released dependent; the caller thread also drains, so
  // these are extra width, not required for progress.
  for (size_t i = 0; i < newly_ready; ++i) {
    pool_->Submit(MakeTicket(plan, state));
  }
  if (metrics_ != nullptr && newly_ready > 0) {
    metrics_->RecordQueueDepth(pool_->QueueDepth());
  }
}

Status ParallelEngine::RunPlan(
    Plan* plan, std::unordered_map<std::string, MemoCache::EntryPtr>* done) {
  if (plan->nodes.empty()) return Status::OK();
  auto state = std::make_shared<RunState>();
  for (auto& [id, node] : plan->nodes) {
    state->deps[id] = node.inputs.size();
    if (node.inputs.empty()) state->ready.push_back(id);
  }
  // The caller runs one initially-ready box itself; pool tickets cover the
  // rest.
  size_t initial = state->ready.size();
  for (size_t i = 1; i < initial; ++i) pool_->Submit(MakeTicket(plan, state));
  if (metrics_ != nullptr) metrics_->RecordQueueDepth(pool_->QueueDepth());

  std::unique_lock<std::mutex> lock(state->mu);
  for (;;) {
    if (!state->ready.empty()) {
      std::string id = std::move(state->ready.front());
      state->ready.pop_front();
      ++state->running;
      lock.unlock();
      FireBox(plan, state, id);
      lock.lock();
    } else if (state->running == 0) {
      break;
    } else {
      state->cv.wait(lock);
    }
  }

  std::sort(state->fire_warnings.begin(), state->fire_warnings.end());
  for (auto& [id, text] : state->fire_warnings) {
    warnings_.push_back(std::move(text));
  }
  if (state->has_error) return state->error;
  *done = std::move(state->done);
  return Status::OK();
}

Result<BoxValue> ParallelEngine::Evaluate(const Graph& graph,
                                          const std::string& box_id,
                                          size_t output_port) {
  ++stats_.evaluations;
  warnings_.clear();
  Plan plan;
  TIOGA2_RETURN_IF_ERROR(BuildPlan(graph, {box_id}, &plan));
  std::unordered_map<std::string, MemoCache::EntryPtr> done;
  TIOGA2_RETURN_IF_ERROR(RunPlan(&plan, &done));
  const MemoCache::EntryPtr& entry = done.at(box_id);
  if (output_port >= entry->outputs.size()) {
    return Status::OutOfRange("box '" + box_id + "' has no output " +
                              std::to_string(output_port));
  }
  return entry->outputs[output_port];
}

Status ParallelEngine::EvaluateAll(const Graph& graph) {
  ++stats_.evaluations;
  warnings_.clear();
  TIOGA2_ASSIGN_OR_RETURN(std::vector<std::string> targets,
                          dataflow::RunnableBoxes(graph, &stats_, &warnings_));
  if (targets.empty()) return Status::OK();
  Plan plan;
  TIOGA2_RETURN_IF_ERROR(BuildPlan(graph, targets, &plan));
  std::unordered_map<std::string, MemoCache::EntryPtr> done;
  return RunPlan(&plan, &done);
}

Result<dataflow::InvalidationResult> ParallelEngine::Invalidate(
    const Graph& graph, const dataflow::Invalidation& inv) {
  db::ExecPolicy policy = policy_.value_or(db::DefaultExecPolicy());
  // Delta propagation runs on the calling thread, but any box it re-fires
  // may still fan its morsels out across the pool.
  if (policy.runner == nullptr) policy.runner = pool_;
  TIOGA2_ASSIGN_OR_RETURN(
      dataflow::InvalidationResult result,
      dataflow::InvalidateCache(graph, catalog_, inv, *cache_, policy));
  stats_.deltas_applied += result.deltas_applied;
  stats_.delta_fallbacks += result.delta_fallbacks;
  if (metrics_ != nullptr) {
    metrics_->RecordDeltaApplied(result.deltas_applied);
    metrics_->RecordDeltaFallback(result.delta_fallbacks);
  }
  warnings_.insert(warnings_.end(), result.warnings.begin(), result.warnings.end());
  return result;
}

}  // namespace tioga2::runtime
