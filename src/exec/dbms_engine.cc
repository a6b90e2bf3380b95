#include "exec/dbms_engine.h"

#include <algorithm>
#include <utility>

#include "simcore/check.h"

namespace elastic::exec {

DbmsEngine::DbmsEngine(ossim::Machine* machine, const BaseCatalog* catalog,
                       const EngineOptions& options)
    : machine_(machine), catalog_(catalog), options_(options) {
  const numasim::Topology& topo = machine_->topology();
  int pool = options_.pool_size > 0 ? options_.pool_size : topo.total_cores();
  ELASTIC_CHECK(pool >= 1, "worker pool must not be empty");

  queues_.resize(static_cast<size_t>(topo.num_nodes()) + 1);
  workers_per_node_.assign(static_cast<size_t>(topo.num_nodes()), 0);

  auto on_job_done = [this](ossim::ThreadId worker) { OnJobDone(worker); };
  for (int w = 0; w < pool; ++w) {
    std::optional<platform::CpuMask> pin;
    int node = -1;
    if (options_.model == ThreadModel::kNumaPinned) {
      node = w % topo.num_nodes();
      pin = platform::CpuMask::NodeCores(topo, node);
    }
    const ossim::ThreadId id =
        machine_->scheduler().SpawnWorker(pin, on_job_done, options_.cpuset);
    workers_.push_back(id);
    worker_node_[id] = node;
    if (node >= 0) workers_per_node_[static_cast<size_t>(node)]++;
    idle_workers_.push_back(id);
  }
}

void DbmsEngine::Submit(const db::PlanTrace* trace,
                        std::function<void()> on_complete,
                        std::vector<TaskGraph::StageTiming>* timing_sink) {
  auto graph = std::make_unique<TaskGraph>(&machine_->page_table(), catalog_,
                                           trace, options_.task_graph,
                                           /*on_complete=*/nullptr);
  TaskGraph* raw = graph.get();
  graphs_.push_back(std::move(graph));
  on_complete_[raw] = std::move(on_complete);
  if (timing_sink != nullptr) timing_sinks_[raw] = timing_sink;
  PumpGraph(raw);
  Dispatch();
}

size_t DbmsEngine::QueueFor(const ossim::Job& job) const {
  if (options_.model == ThreadModel::kOsScheduled || job.ranges.empty()) {
    return queues_.size() - 1;  // global queue
  }
  // SQL Server model: data-local dispatch. Intermediate inputs dominate the
  // decision — their pages were first-touched by the producing task, so
  // following them preserves producer-consumer affinity through the
  // pipeline. Base inputs are the fallback (their chunk placement decides).
  numasim::NodeId base_home = numasim::kInvalidNode;
  for (const ossim::PageRange& range : job.ranges) {
    if (range.write || range.num_pages() <= 0) continue;
    const numasim::PageId first =
        numasim::PageTable::PageOf(range.buffer, range.begin);
    const numasim::NodeId home = machine_->page_table().HomeOf(first);
    if (home == numasim::kInvalidNode) continue;
    if (workers_per_node_[static_cast<size_t>(home)] == 0) continue;
    if (!catalog_->IsBaseBuffer(range.buffer)) {
      return static_cast<size_t>(home);  // intermediate: highest priority
    }
    if (base_home == numasim::kInvalidNode) base_home = home;
  }
  if (base_home != numasim::kInvalidNode) return static_cast<size_t>(base_home);
  return queues_.size() - 1;
}

void DbmsEngine::PumpGraph(TaskGraph* graph) {
  for (ossim::Job& job : graph->TakeReadyJobs()) {
    PendingJob pending;
    pending.job = std::move(job);
    pending.graph = graph;
    queues_[QueueFor(pending.job)].push_back(std::move(pending));
  }
}

bool DbmsEngine::PopJobFor(ossim::ThreadId worker, PendingJob* out) {
  const int node = worker_node_[worker];
  // Preferred queue first (pinned workers), then the global queue, then the
  // longest other node queue (work sharing across sockets).
  if (node >= 0 && !queues_[static_cast<size_t>(node)].empty()) {
    *out = std::move(queues_[static_cast<size_t>(node)].front());
    queues_[static_cast<size_t>(node)].pop_front();
    return true;
  }
  auto& global = queues_.back();
  if (!global.empty()) {
    *out = std::move(global.front());
    global.pop_front();
    return true;
  }
  size_t richest = queues_.size();
  size_t richest_size = 0;
  for (size_t q = 0; q + 1 < queues_.size(); ++q) {
    if (static_cast<int>(q) == node) continue;
    if (queues_[q].size() > richest_size) {
      richest = q;
      richest_size = queues_[q].size();
    }
  }
  // Cross-node work sharing only under real imbalance: stealing one lone
  // job would destroy the locality the dispatch just established.
  if (richest < queues_.size() && richest_size >= 2) {
    *out = std::move(queues_[richest].front());
    queues_[richest].pop_front();
    return true;
  }
  return false;
}

void DbmsEngine::Dispatch() {
  // Match idle workers with queued jobs until one side runs dry.
  for (size_t scan = idle_workers_.size(); scan > 0; --scan) {
    if (idle_workers_.empty()) break;
    const ossim::ThreadId worker = idle_workers_.front();
    idle_workers_.pop_front();
    PendingJob pending;
    if (!PopJobFor(worker, &pending)) {
      idle_workers_.push_back(worker);
      continue;
    }
    running_graph_[worker] = pending.graph;
    machine_->scheduler().AssignJob(worker, std::move(pending.job));
  }
}

void DbmsEngine::OnJobDone(ossim::ThreadId worker) {
  auto it = running_graph_.find(worker);
  ELASTIC_CHECK(it != running_graph_.end(), "completion from unknown worker");
  TaskGraph* graph = it->second;
  running_graph_.erase(it);
  idle_workers_.push_back(worker);

  graph->OnJobComplete();
  if (graph->done()) {
    HandleComplete(graph);
  } else {
    PumpGraph(graph);
  }
  Dispatch();
}

void DbmsEngine::HandleComplete(TaskGraph* graph) {
  completed_++;
  auto sink = timing_sinks_.find(graph);
  if (sink != timing_sinks_.end()) {
    *sink->second = graph->stage_timings();
    timing_sinks_.erase(sink);
  }
  std::function<void()> callback;
  auto cb = on_complete_.find(graph);
  if (cb != on_complete_.end()) {
    callback = std::move(cb->second);
    on_complete_.erase(cb);
  }
  for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
    if (it->get() == graph) {
      graphs_.erase(it);
      break;
    }
  }
  if (callback) callback();  // may Submit() recursively
}

}  // namespace elastic::exec
