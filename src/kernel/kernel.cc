#include "src/kernel/kernel.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace unison {

const char* RunReasonName(RunReason reason) {
  switch (reason) {
    case RunReason::kWindowReached:
      return "window";
    case RunReason::kExhausted:
      return "exhausted";
    case RunReason::kStopRequested:
      return "stop";
  }
  return "unknown";
}

void FatalConfigError(const std::string& message) {
  std::fprintf(stderr, "unison: %s\n", message.c_str());
  std::abort();
}

std::string KernelConfig::Validate() const {
  if (threads == 0) {
    return "KernelConfig.threads must be >= 1 (0 workers cannot make "
           "progress; use threads=1 for a single-executor run)";
  }
  if (type == KernelType::kHybrid && ranks < 1) {
    return "KernelConfig.ranks must be >= 1 for the hybrid kernel (each "
           "rank models one simulated host)";
  }
  if (affinity != AffinityPolicy::kNone &&
      affinity != AffinityPolicy::kCompact &&
      affinity != AffinityPolicy::kScatter) {
    return "KernelConfig.affinity must be one of none|compact|scatter";
  }
  return {};
}

void Kernel::Setup(const TopoGraph& graph, const Partition& partition) {
  graph_ = &graph;
  partition_ = partition;
  lps_.clear();
  lps_.reserve(partition_.num_lps);
  for (LpId i = 0; i < partition_.num_lps; ++i) {
    lps_.push_back(std::make_unique<Lp>(i, config_.deterministic));
  }
  public_lp_ = std::make_unique<Lp>(kPublicLp, config_.deterministic);
  processed_events_ = 0;
  rounds_ = 0;
  session_now_ = Time::Zero();
  resume_floor_ = Time::Zero();
  session_events_ = 0;
  session_rounds_ = 0;
  session_windows_ = 0;
  flags_.stop_requested = false;
  if (trace_ != nullptr) {
    trace_->BeginSession();
  }
  WireMailboxes();
}

void Kernel::BeginWindow(const char* kernel_name, uint32_t executors) {
  flags_.stop_requested.store(false, std::memory_order_relaxed);
  if (RunTrace* const rec = recorder()) {
    rec->BeginRun(kernel_name, executors, num_lps());
  }
}

void Kernel::ScheduleGlobal(Time abs, EventFn fn) {
  Lp* const cur = Lp::Current();
  // Global events are normally scheduled before the run or from another
  // global event (§4.2), both single-threaded contexts. Scheduling from an
  // LP event is tolerated but serialized: the public FEL is shared.
  if (cur != nullptr && cur != public_lp_.get()) {
    std::lock_guard<std::mutex> lock(public_mu_);
    public_lp_->fel().Push(Event{cur->MakeKey(abs), kNoNode, std::move(fn)});
    flags_.global_scheduled = true;
    return;
  }
  Lp* const sender = cur != nullptr ? cur : public_lp_.get();
  public_lp_->fel().Push(Event{sender->MakeKey(abs), kNoNode, std::move(fn)});
}

void Kernel::NotifyTopologyChanged() {
  FinalizePartition(*graph_, &partition_);
  WireMailboxes();
}

void Kernel::ScheduleRemote(Lp* /*from*/, LpId target, Event ev) {
  // No wired channel (the barrier preset wires none; otherwise possible
  // after a dynamic topology change until the next rewire): fall back to the
  // locked overflow box.
  lps_[target]->overflow().Push(std::move(ev));
}

void Kernel::WireMailboxes() {
  for (const CutEdge& edge : partition_.cut_edges) {
    for (const auto& [src, dst] : {std::pair{edge.a, edge.b}, std::pair{edge.b, edge.a}}) {
      Lp* const from = lps_[src].get();
      if (from->FindOutbox(dst) == nullptr) {
        lps_[dst]->AddInbox(from->AddOutbox(dst));
      }
    }
  }
}

uint64_t Kernel::RunGlobalEvents(Time upto, Time stop) {
  if (upto.IsMax()) {
    return public_lp_->ProcessUntil(stop);
  }
  const Time bound = std::min(stop, upto + Time::Picoseconds(1));
  return public_lp_->ProcessUntil(bound);
}

Kernel::WindowTuning Kernel::SampleTuning(uint32_t default_parties,
                                          bool parties_tunable) const {
  WindowTuning t;
  uint32_t period = 0;
  uint32_t parties = default_parties;
  AffinityPolicy affinity = config_.affinity;
  if (tunables_ != nullptr) {
    const Tunables& live = tunables_->Get();
    t.epoch = tunables_->epoch();
    period = live.sched_period;
    if (parties_tunable && live.parties > 0) {
      // The config default is also the ceiling: FlowMonitor shards and other
      // per-executor state were sized from it at Finalize.
      parties = std::min(live.parties, default_parties);
    }
    affinity = live.affinity;
  }
  if (period == 0) {
    const uint32_t n = std::max(2u, num_lps());
    period = static_cast<uint32_t>(std::bit_width(n - 1));  // ceil(log2 n)
  }
  t.sched_period = period;
  t.parties = std::max(1u, parties);
  t.affinity = affinity;
  return t;
}

RunResult Kernel::FinishRun(const char* kernel_name, uint32_t executors,
                            uint64_t wall_ns, Time stop, RunReason reason) {
  // Every kernel reaches here with its executors quiesced (the pool's Run
  // has returned; for the engine kernels that means the combining tree's
  // final reduction released everyone) — the window boundary where sharded
  // per-executor state merges race-free.
  if (window_end_hook_) {
    window_end_hook_();
  }
  run_summary_ = RunSummary{};
  run_summary_.kernel = kernel_name;
  run_summary_.executors = executors;
  run_summary_.lps = num_lps();
  run_summary_.rounds = rounds_;
  run_summary_.events = processed_events_;
  run_summary_.wall_ns = wall_ns;
  run_summary_.window_index = session_windows_;
  run_summary_.window_start_ps = session_now_.ps();
  run_summary_.window_stop_ps = stop.ps();
  run_summary_.reason = RunReasonName(reason);
  run_summary_.forked_from = lineage_;
  run_summary_.tuning_epoch = tuning_.epoch;
  run_summary_.sched_period = tuning_.sched_period;
  run_summary_.parties = tuning_.parties;
  run_summary_.steals = window_steals_;
  run_summary_.messages = window_messages_;
  if (RunTrace* const rec = recorder()) {
    rec->EndRun(&run_summary_);
  }

  // Roll the window into the session. An early stop leaves events below
  // `stop` unexecuted, so it advances neither the session clock nor the
  // resume floor (the floor additionally rewinds to zero: fully conservative
  // restart state for the null-message kernel's channel clocks).
  session_events_ += processed_events_;
  session_rounds_ += rounds_;
  ++session_windows_;
  if (reason == RunReason::kStopRequested) {
    resume_floor_ = Time::Zero();
  } else {
    session_now_ = std::max(session_now_, stop);
    resume_floor_ = session_now_;
  }
  return RunResult{reason, session_now_, processed_events_, rounds_};
}

}  // namespace unison
