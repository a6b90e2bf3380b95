#include "ossim/scheduler.h"

#include <algorithm>
#include <utility>

#include "simcore/check.h"

namespace elastic::ossim {

namespace {

/// Prepares the progress cursors for a thread's new front job.
void InitFrontJob(Thread* thread) {
  if (thread->jobs.empty()) return;
  const Job& job = thread->jobs.front();
  thread->range_pos.assign(job.ranges.size(), 0);
  thread->range_cursor = 0;
}

}  // namespace

Scheduler::Scheduler(const numasim::Topology* topology,
                     numasim::MemorySystem* memory, perf::CounterSet* counters,
                     simcore::Clock* clock, simcore::Trace* trace,
                     SchedulerConfig config)
    : topology_(topology),
      memory_(memory),
      counters_(counters),
      clock_(clock),
      trace_(trace),
      config_(config),
      allowed_(platform::CpuMask::AllOf(*topology)),
      cycles_per_tick_(static_cast<int64_t>(topology->config().cycles_per_second *
                                            simcore::Clock::kSecondsPerTick)) {
  run_queue_.resize(static_cast<size_t>(topology_->total_cores()));
  running_.assign(static_cast<size_t>(topology_->total_cores()), kInvalidThread);
  node_load_.assign(static_cast<size_t>(topology_->num_nodes()), 0);
}

ThreadId Scheduler::SpawnWorker(std::optional<platform::CpuMask> pin,
                                std::function<void(ThreadId)> on_job_done,
                                CpusetId cpuset) {
  ELASTIC_CHECK(cpuset == kGlobalCpuset || (cpuset >= 0 && cpuset < num_cpusets()),
                "unknown cpuset");
  Thread thread;
  thread.id = static_cast<ThreadId>(threads_.size());
  thread.state = ThreadState::kIdle;
  thread.pin = pin;
  thread.cpuset = cpuset;
  thread.on_job_done = std::move(on_job_done);
  threads_.push_back(std::move(thread));
  return threads_.back().id;
}

ThreadId Scheduler::SpawnOneShot(Job job,
                                 std::optional<platform::CpuMask> pin,
                                 std::function<void(ThreadId)> on_exit,
                                 CpusetId cpuset) {
  ELASTIC_CHECK(cpuset == kGlobalCpuset || (cpuset >= 0 && cpuset < num_cpusets()),
                "unknown cpuset");
  Thread thread;
  thread.id = static_cast<ThreadId>(threads_.size());
  thread.state = ThreadState::kIdle;
  thread.pin = pin;
  thread.cpuset = cpuset;
  thread.one_shot = true;
  thread.on_exit = std::move(on_exit);
  threads_.push_back(std::move(thread));
  AssignJob(threads_.back().id, std::move(job));
  return threads_.back().id;
}

CpusetId Scheduler::CreateCpuset(platform::CpuMask mask) {
  ELASTIC_CHECK(!mask.Empty(), "cpuset must hold at least one core");
  ELASTIC_CHECK(mask.IsSubsetOf(platform::CpuMask::AllOf(*topology_)),
                "cpuset exceeds machine cores");
  cpusets_.push_back(mask);
  return static_cast<CpusetId>(cpusets_.size()) - 1;
}

platform::CpuMask Scheduler::cpuset_mask(CpusetId cpuset) const {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < num_cpusets(), "unknown cpuset");
  return cpusets_[static_cast<size_t>(cpuset)];
}

void Scheduler::SetCpusetMask(CpusetId cpuset, platform::CpuMask mask) {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < num_cpusets(), "unknown cpuset");
  ELASTIC_CHECK(!mask.Empty(), "cpuset must keep at least one core");
  ELASTIC_CHECK(mask.IsSubsetOf(platform::CpuMask::AllOf(*topology_)),
                "cpuset exceeds machine cores");
  if (mask == cpusets_[static_cast<size_t>(cpuset)]) return;
  cpusets_[static_cast<size_t>(cpuset)] = mask;
  ReconfineThreads();
}

void Scheduler::AssignJob(ThreadId id, Job job) {
  ELASTIC_CHECK(id >= 0 && id < num_threads(), "bad thread id");
  Thread& thread = threads_[id];
  ELASTIC_CHECK(thread.state != ThreadState::kFinished,
                "assigning job to finished thread");
  counters_->tasks_spawned++;
  thread.jobs.push_back(std::move(job));
  if (thread.state == ThreadState::kIdle) {
    InitFrontJob(&thread);
    const numasim::CoreId core = PickCoreForPlacement(thread);
    thread.consecutive_ticks_on_core = 0;
    EnqueueReady(id, core);
    runnable_count_++;
  }
}

void Scheduler::SetAllowedMask(platform::CpuMask mask) {
  ELASTIC_CHECK(!mask.Empty(), "cpuset must keep at least one core");
  ELASTIC_CHECK(mask.IsSubsetOf(platform::CpuMask::AllOf(*topology_)),
                "cpuset exceeds machine cores");
  if (mask == allowed_) return;
  allowed_ = mask;
  ReconfineThreads();
}

void Scheduler::MigrateThread(ThreadId id) {
  Thread& thread = threads_[id];
  const numasim::CoreId target = PickCoreForPlacement(thread);
  thread.migrations++;
  counters_->thread_migrations++;
  if (config_.trace_migrations) {
    trace_->Add(clock_->now(), "migrate", id, target);
  }
  thread.consecutive_ticks_on_core = 0;
  EnqueueReady(id, target);
}

void Scheduler::ReconfineThreads() {
  // Migrate every ready/running thread whose current core left its
  // effective mask. Checking the invariant (rather than diffing old vs new
  // cores) also repairs fallback placements: a cpuset thread parked on the
  // global mask while cpuset ∩ allowed was empty returns to its group as
  // soon as a mask change makes the intersection non-empty again.
  for (numasim::CoreId core = 0; core < topology_->total_cores(); ++core) {
    const ThreadId running = running_[core];
    if (running != kInvalidThread &&
        !EffectiveMask(threads_[running]).Has(core)) {
      running_[core] = kInvalidThread;
      MigrateThread(running);
    }
    auto& queue = run_queue_[core];
    for (size_t scan = queue.size(); scan > 0; --scan) {
      const ThreadId id = queue.front();
      queue.pop_front();
      if (!EffectiveMask(threads_[id]).Has(core)) {
        MigrateThread(id);
      } else {
        queue.push_back(id);  // still legally placed, keep queue order
      }
    }
  }
}

platform::CpuMask Scheduler::EffectiveMask(const Thread& thread) const {
  platform::CpuMask world = allowed_;
  if (thread.cpuset != kGlobalCpuset) {
    const platform::CpuMask scoped =
        cpusets_[static_cast<size_t>(thread.cpuset)].Intersect(allowed_);
    if (!scoped.Empty()) world = scoped;
  }
  if (thread.pin.has_value()) {
    const platform::CpuMask effective = thread.pin->Intersect(world);
    if (!effective.Empty()) return effective;
  }
  return world;
}

int Scheduler::CoreLoad(numasim::CoreId core) const {
  return static_cast<int>(run_queue_[core].size()) +
         (running_[core] != kInvalidThread ? 1 : 0);
}

numasim::CoreId Scheduler::PickCoreForPlacement(const Thread& thread) {
  const platform::CpuMask mask = EffectiveMask(thread);
  ELASTIC_CHECK(!mask.Empty(), "no core available for placement");

  // Minimum per-core load.
  int min_load = INT32_MAX;
  mask.ForEach([&](numasim::CoreId core) {
    min_load = std::min(min_load, CoreLoad(core));
  });

  // Among min-load cores prefer the least-loaded node (the OS spreads for
  // balance, scattering threads across sockets).
  std::fill(node_load_.begin(), node_load_.end(), 0);
  allowed_.ForEach([&](numasim::CoreId core) {
    node_load_[static_cast<size_t>(topology_->NodeOfCore(core))] +=
        CoreLoad(core);
  });
  const auto node_load_of = [&](numasim::CoreId core) {
    return node_load_[static_cast<size_t>(topology_->NodeOfCore(core))];
  };
  int64_t best_node_load = INT64_MAX;
  size_t finalists = 0;
  mask.ForEach([&](numasim::CoreId core) {
    if (CoreLoad(core) != min_load) return;
    const int64_t load = node_load_of(core);
    if (load < best_node_load) {
      best_node_load = load;
      finalists = 0;
    }
    if (load == best_node_load) finalists++;
  });

  // Round-robin over the finalists in ascending core order.
  size_t pick = static_cast<size_t>(placement_rr_++) % finalists;
  numasim::CoreId chosen = numasim::kInvalidCore;
  mask.ForEach([&](numasim::CoreId core) {
    if (chosen != numasim::kInvalidCore || CoreLoad(core) != min_load ||
        node_load_of(core) != best_node_load) {
      return;
    }
    if (pick-- == 0) chosen = core;
  });
  return chosen;
}

void Scheduler::EnqueueReady(ThreadId id, numasim::CoreId core) {
  Thread& thread = threads_[id];
  thread.state = ThreadState::kReady;
  thread.core = core;
  run_queue_[core].push_back(id);
}

void Scheduler::RemoveFromCore(ThreadId id) {
  Thread& thread = threads_[id];
  if (thread.core == numasim::kInvalidCore) return;
  if (running_[thread.core] == id) {
    running_[thread.core] = kInvalidThread;
  } else {
    auto& queue = run_queue_[thread.core];
    auto it = std::find(queue.begin(), queue.end(), id);
    if (it != queue.end()) queue.erase(it);
  }
  thread.core = numasim::kInvalidCore;
}

ThreadId Scheduler::TrySteal(numasim::CoreId thief) {
  numasim::CoreId richest = numasim::kInvalidCore;
  size_t richest_depth = 0;
  allowed_.ForEach([&](numasim::CoreId core) {
    if (core != thief && run_queue_[core].size() > richest_depth) {
      richest_depth = run_queue_[core].size();
      richest = core;
    }
  });
  if (richest == numasim::kInvalidCore || richest_depth == 0) return kInvalidThread;
  // Steal the coldest (back) thread whose mask permits the thief core.
  auto& queue = run_queue_[richest];
  for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
    Thread& thread = threads_[*it];
    if (!EffectiveMask(thread).Has(thief)) continue;
    const ThreadId id = *it;
    queue.erase(std::next(it).base());
    counters_->stolen_tasks++;
    if (config_.trace_migrations) {
      trace_->Add(clock_->now(), "steal", id, thief);
    }
    thread.core = thief;
    thread.consecutive_ticks_on_core = 0;
    return id;
  }
  return kInvalidThread;
}

void Scheduler::LoadBalance() {
  counters_->load_balance_rounds++;
  if (allowed_.Count() < 2) return;
  // Repeatedly move one queued thread from the busiest to the idlest core
  // until the imbalance collapses below two.
  for (int iteration = 0; iteration < topology_->total_cores(); ++iteration) {
    numasim::CoreId busiest = allowed_.First();
    numasim::CoreId idlest = busiest;
    allowed_.ForEach([&](numasim::CoreId core) {
      if (CoreLoad(core) > CoreLoad(busiest)) busiest = core;
      if (CoreLoad(core) < CoreLoad(idlest)) idlest = core;
    });
    if (CoreLoad(busiest) - CoreLoad(idlest) < 2) break;
    if (run_queue_[busiest].empty()) break;
    // Migrate the coldest queued thread allowed on the idle core.
    bool moved = false;
    auto& queue = run_queue_[busiest];
    for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
      Thread& thread = threads_[*it];
      if (!EffectiveMask(thread).Has(idlest)) continue;
      const ThreadId id = *it;
      queue.erase(std::next(it).base());
      thread.migrations++;
      counters_->thread_migrations++;
      if (config_.trace_migrations) {
        trace_->Add(clock_->now(), "migrate", id, idlest);
      }
      EnqueueReady(id, idlest);
      moved = true;
      break;
    }
    if (!moved) break;
  }
}

int64_t Scheduler::RunThreadOnCore(ThreadId id, numasim::CoreId core,
                                   int64_t budget,
                                   std::vector<ThreadId>* completed_jobs) {
  Thread& thread = threads_[id];
  thread.state = ThreadState::kRunning;
  thread.core = core;
  if (config_.trace_placement) {
    trace_->Add(clock_->now(), "run", id, core);
  }

  const int64_t initial_budget = budget;
  int64_t used = 0;
  while (budget > 0 && !thread.jobs.empty()) {
    Job& job = thread.jobs.front();
    // Find the next range with remaining pages, round-robin across ranges so
    // multi-column scans interleave their streams.
    size_t scanned = 0;
    bool advanced = false;
    while (scanned < job.ranges.size()) {
      const size_t r = thread.range_cursor % job.ranges.size();
      thread.range_cursor++;
      scanned++;
      const PageRange& range = job.ranges[r];
      if (thread.range_pos[r] >= range.num_pages()) continue;
      const numasim::PageId page =
          numasim::PageTable::PageOf(range.buffer, range.begin + thread.range_pos[r]);
      const numasim::AccessResult access =
          memory_->Access(core, page, range.write, job.stream);
      const int64_t cycles = access.cycles + job.cpu_cycles_per_page;
      budget -= cycles;
      used += cycles;
      counters_->stream_busy_cycles[job.stream] += cycles;
      thread.range_pos[r]++;
      thread.pages_processed++;
      if (access.remote) thread.remote_pages++;
      advanced = true;
      break;
    }
    if (!advanced) {
      // All ranges exhausted: the job is complete.
      thread.jobs.pop_front();
      completed_jobs->push_back(id);
      if (thread.jobs.empty()) break;
      InitFrontJob(&thread);
    }
  }
  used = std::min(used, initial_budget);
  counters_->core_busy_cycles[core] += used;
  thread.consecutive_ticks_on_core++;
  return used;
}

void Scheduler::Tick() {
  memory_->BeginTick();
  if (config_.load_balance_period > 0 &&
      clock_->now() % config_.load_balance_period == 0) {
    LoadBalance();
  }

  // The cores of the tick are the mask as it stood when the tick began,
  // even if a completion callback installs a new one mid-tick.
  const platform::CpuMask cores = allowed_;
  cores.ForEach([&](numasim::CoreId core) {
    // A core's quantum is consumed by as many threads as fit: when a job
    // finishes mid-tick the next runnable thread is dispatched immediately,
    // like a real OS (no idle tail on a busy core).
    int64_t remaining = cycles_per_tick_;
    while (remaining > 0) {
      // Dispatch: continue the running thread, else pop the queue, else steal.
      if (running_[core] == kInvalidThread) {
        if (!run_queue_[core].empty()) {
          running_[core] = run_queue_[core].front();
          run_queue_[core].pop_front();
          threads_[running_[core]].consecutive_ticks_on_core = 0;
        } else {
          const ThreadId stolen = TrySteal(core);
          if (stolen != kInvalidThread) running_[core] = stolen;
        }
      }
      const ThreadId current = running_[core];
      if (current == kInvalidThread) break;  // nothing runnable anywhere

      completed_jobs_.clear();
      const int64_t used = RunThreadOnCore(current, core, remaining,
                                           &completed_jobs_);
      remaining -= std::max<int64_t>(used, 1);

      Thread& thread = threads_[current];
      bool exited = false;
      if (thread.jobs.empty()) {
        // Worker goes idle (or exits, for one-shot threads); the core frees.
        running_[core] = kInvalidThread;
        thread.core = numasim::kInvalidCore;
        runnable_count_--;
        if (thread.one_shot) {
          thread.state = ThreadState::kFinished;
          exited = true;
        } else {
          thread.state = ThreadState::kIdle;
        }
      } else if (config_.timeslice_ticks > 0 &&
                 thread.consecutive_ticks_on_core >= config_.timeslice_ticks &&
                 !run_queue_[core].empty()) {
        // Preempt: rotate to the back of this core's queue.
        running_[core] = kInvalidThread;
        EnqueueReady(current, core);
      }

      // Completion callbacks run after the thread's slice so they can safely
      // assign new jobs (possibly to this very thread, waking it again).
      // One-shot threads get a single on_exit instead of per-job callbacks.
      for (ThreadId done : completed_jobs_) {
        Thread& owner = threads_[done];
        if (owner.one_shot) continue;
        if (owner.on_job_done) owner.on_job_done(done);
      }
      if (exited && thread.on_exit) thread.on_exit(current);
    }
  });
}

}  // namespace elastic::ossim
