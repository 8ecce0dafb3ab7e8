#include "src/kernel/round_kernel.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/kernel/engine/phase_accountant.h"
#include "src/sched/lpt.h"
#include "src/sched/metrics.h"

namespace unison {

namespace {

const char* PresetName(KernelType type) {
  switch (type) {
    case KernelType::kBarrier:
      return "barrier";
    case KernelType::kHybrid:
      return "hybrid";
    default:
      return "unison";
  }
}

// What a preset re-sorts its claim orders by. Barrier claims in ascending
// LpId order, as stock barrier sync does. Hybrid ranks use last-round time
// under either metric: counting FEL events cross-rank from the coordinator
// would be a remote operation on a real deployment.
SchedulingMetric ClaimMetric(const KernelConfig& config) {
  if (config.type == KernelType::kBarrier ||
      config.metric == SchedulingMetric::kNone) {
    return SchedulingMetric::kNone;
  }
  return config.type == KernelType::kHybrid ? SchedulingMetric::kByLastRoundTime
                                            : config.metric;
}

// a + b for b >= 0, where INT64_MAX (Time::Max) means no bound.
int64_t SaturatingAdd(int64_t a, int64_t b) {
  return a > INT64_MAX - b ? INT64_MAX : a + b;
}

}  // namespace

RoundKernel::RoundKernel(const KernelConfig& config)
    : Kernel(config),
      name_(PresetName(config.type)),
      claim_metric_(ClaimMetric(config)),
      lanes_tunable_(config.type != KernelType::kBarrier),
      lane_owned_(config.type == KernelType::kUnison) {}

void RoundKernel::Setup(const TopoGraph& graph, const Partition& partition) {
  Kernel::Setup(graph, partition);
  if (config_.type == KernelType::kBarrier) {
    // Rank r owns LP r (the classic 1:1 pinning); the rank count is
    // structural.
    groups_ = num_lps();
    max_lanes_ = 1;
    pmap_.ResetStrided(num_lps(), groups_);
  } else if (config_.type == KernelType::kHybrid) {
    // Coarse host mapping: slice the node-id range into `ranks` blocks (the
    // static partition the barrier algorithm would use) and place each LP on
    // the rank owning its first node, so fine-grained LPs never straddle
    // hosts.
    groups_ = std::max(1u, config_.ranks);
    max_lanes_ = std::max(1u, config_.threads);
    std::vector<uint32_t> first_node(num_lps(), graph.num_nodes);
    for (NodeId n = 0; n < graph.num_nodes; ++n) {
      const LpId lp = partition_.lp_of_node[n];
      first_node[lp] = std::min(first_node[lp], n);
    }
    for (uint32_t& node : first_node) {
      node = static_cast<uint32_t>(static_cast<uint64_t>(node) * groups_ /
                                   std::max(1u, graph.num_nodes));
    }
    pmap_.Reset(std::move(first_node), groups_);
  } else {
    // Slots in units of the config lane ceiling, folded modulo the live lane
    // count in BuildLayout when tuning shrinks the lanes.
    groups_ = 1;
    max_lanes_ = std::max(1u, config_.threads);
    pmap_.ResetStrided(num_lps(), max_lanes_);
  }
  layout_workers_ = 0;
  last_round_ns_.assign(num_lps(), 0);
  shared_.workers = std::make_unique<Worker[]>(MaxExecutors());
  shared_.barrier = std::make_unique<CombiningBarrier>(MaxExecutors());
  shared_.lanes = max_lanes_;
  // A borrowed pool keeps its owner's placement; only the kernel's own pool
  // takes this config's affinity.
  active_pool_ = external_pool_ != nullptr ? external_pool_ : &pool_;
  if (active_pool_ == &pool_) {
    pool_.SetPlacement(config_.affinity);
  }
  active_pool_->Ensure(MaxExecutors());
}

void RoundKernel::WireMailboxes() {
  if (config_.type != KernelType::kBarrier) {
    Kernel::WireMailboxes();
  }
}

RunResult RoundKernel::Run(Time stop_time) {
  // Sample the live tunables once per window, before any worker releases:
  // re-sort cadence, lanes per group (≤ the config ceiling, so per-executor
  // state sized at Finalize still fits), and placement. A window is the only
  // safe boundary — the barrier tree and the layout key off the worker count.
  tuning_ = lanes_tunable_ ? SampleTuning(max_lanes_)
                           : SampleTuning(groups_, /*parties_tunable=*/false);
  period_ = tuning_.sched_period;
  shared_.lanes = lanes_tunable_ ? tuning_.parties : 1;
  const uint32_t workers = groups_ * shared_.lanes;
  live_workers_ = workers;
  if (workers != shared_.barrier->parties()) {
    shared_.barrier = std::make_unique<CombiningBarrier>(workers);
  }
  shared_.lps = lps_.data();
  if (active_pool_ == &pool_) {
    pool_.ApplyPlacement(tuning_.affinity);
  }
  // Re-Ensure every window (no-op when unchanged): a borrowed pool may have
  // been resized by its owner, and tuning resizes ours.
  active_pool_->Ensure(workers);
  if (workers != layout_workers_) {
    BuildLayout(workers);
  }

  const uint64_t run_t0 = Profiler::NowNs();
  // One worker owns every LP, so nothing needs a round: step each LP to its
  // own safe bound. Windows that record per-LP round costs keep rounds — the
  // cost model and InstrumentedRun consume them.
  Profiler* const rows = window_rows();
  if (workers == 1 && partition_.lookahead > Time::Zero() &&
      (rows == nullptr || !rows->per_lp)) {
    BeginWindow(name_, 1);
    const RunReason reason = StepLoop(stop_time);
    const uint64_t wall_ns = Profiler::NowNs() - run_t0;
    processed_events_ = shared_.workers[0].events;
    rounds_ = 0;
    window_steals_ = 0;
    window_messages_ = rows != nullptr ? shared_.workers[0].messages : 0;
    if (rows != nullptr) {
      // As the sequential kernel records it: one executor, the whole window P.
      rows->executor(0).processing_ns = wall_ns;
      rows->executor(0).events = processed_events_;
    }
    return FinishRun(name_, 1, wall_ns, stop_time, reason);
  }

  sync_.BeginRun(name_, workers, stop_time);
  sync_.SetParkBaseline(shared_.barrier->parks());
  shared_.timing = sync_.recording() ||
                   claim_metric_ == SchedulingMetric::kByLastRoundTime;
  for (uint32_t w = 0; w < workers; ++w) {
    shared_.workers[w].events = 0;
    shared_.workers[w].steals = 0;
    shared_.workers[w].messages = 0;
  }
  // Round 0's prologue runs here, on the caller, before the workers start;
  // every later one runs in the completion step of the previous round's
  // end-of-round crossing. Workers contribute their partial minima at the
  // end of each round, so round 0's reduction is seeded from the LPs.
  sync_.SeedMinFromLps();
  Prologue();

  active_pool_->Run([this](uint32_t worker) { RoundLoop(worker); });

  processed_events_ = LiveEvents();
  rounds_ = sync_.round_index();
  window_steals_ = 0;
  window_messages_ = 0;
  if (sync_.recording()) {
    for (uint32_t w = 0; w < workers; ++w) {
      window_steals_ += shared_.workers[w].steals;
      window_messages_ += shared_.workers[w].messages;
    }
  }
  return FinishRun(name_, workers, Profiler::NowNs() - run_t0, stop_time,
                   sync_.reason());
}

void RoundKernel::ScheduleRemote(Lp* from, LpId target, Event ev) {
  Kernel::ScheduleRemote(from, target, std::move(ev));
  // The step loop lowers heads from wired outboxes only; an overflow send
  // makes it re-read every LP. One worker means one writer.
  if (live_workers_ == 1) {
    overflowed_ = true;
  }
}

RunReason RoundKernel::StepLoop(Time stop) {
  const uint32_t n = num_lps();
  std::vector<int64_t>& head = head_ps_;
  head.resize(n);
  uint64_t events = 0;
  uint64_t messages = 0;
  // Moves every mailbox into its FEL and re-reads every head from it.
  const auto settle = [&] {
    for (uint32_t i = 0; i < n; ++i) {
      messages += lps_[i]->DrainInboxes();
      head[i] = lps_[i]->fel().NextTimestamp().ps();
    }
    overflowed_ = false;
  };
  settle();
  int64_t lookahead = partition_.lookahead.ps();
  RunReason reason = RunReason::kStopRequested;
  while (!stop_requested()) {
    // The earliest head, and the earliest among the other LPs.
    uint32_t a = 0;
    int64_t first = INT64_MAX;
    int64_t second = INT64_MAX;
    for (uint32_t i = 0; i < n; ++i) {
      if (head[i] < first) {
        second = first;
        first = head[i];
        a = i;
      } else if (head[i] < second) {
        second = head[i];
      }
    }
    const int64_t npub = public_lp_->fel().NextTimestamp().ps();
    if (first == INT64_MAX && npub == INT64_MAX) {
      reason = RunReason::kExhausted;
      break;
    }
    if (std::min(first, npub) >= stop.ps()) {
      reason = RunReason::kWindowReached;
      break;
    }
    if (npub <= first) {
      // LP events below the global ran; the globals at npub run before the
      // LP events at npub. Every mailbox is delivered first, so a global sees
      // each pending event in its LP's FEL, as under the sequential kernel.
      // Globals may insert into any FEL or change the lookahead.
      settle();
      shared_.workers[0].events = events;  // LiveEvents, for the globals.
      events += RunGlobalEvents(Time::Picoseconds(npub), stop);
      settle();
      lookahead = partition_.lookahead.ps();
      continue;
    }
    // Safe bound: another LP's events send no earlier than its head plus the
    // lookahead, and a reply to this step's own sends lands no earlier than
    // two lookaheads past this LP's head.
    const int64_t bound =
        std::min({SaturatingAdd(second, lookahead),
                  SaturatingAdd(SaturatingAdd(first, lookahead), lookahead),
                  npub, stop.ps()});
    Lp* const lp = lps_[a].get();
    const std::vector<std::unique_ptr<Outbox>>& boxes = lp->outboxes();
    sent_before_.clear();
    for (const std::unique_ptr<Outbox>& box : boxes) {
      sent_before_.push_back(box->events.size());
    }
    messages += lp->DrainInboxes();
    events += lp->ProcessUntil(Time::Picoseconds(bound));
    head[a] = lp->fel().NextTimestamp().ps();
    // Lazy delivery: the sends stay in the outboxes until their target's
    // next step; only the target's head learns of them now.
    for (size_t k = 0; k < boxes.size(); ++k) {
      const std::vector<Event>& sent = boxes[k]->events;
      int64_t& target = head[boxes[k]->target];
      for (size_t e = sent_before_[k]; e < sent.size(); ++e) {
        target = std::min(target, sent[e].key.ts.ps());
      }
    }
    if (overflowed_) {
      settle();
    }
  }
  settle();
  shared_.workers[0].events = events;
  shared_.workers[0].messages = messages;
  return reason;
}

void RoundKernel::BuildLayout(uint32_t workers) {
  // Own lists start from the setup placement, ascending by LpId; the first
  // prologue of each window re-sorts them (claim order only affects wall
  // time, never results).
  const uint32_t lanes = shared_.lanes;
  for (uint32_t w = 0; w < MaxExecutors(); ++w) {
    shared_.workers[w].list.clear();
    shared_.workers[w].claimed.clear();
  }
  if (lane_owned_) {
    for (uint32_t lp = 0; lp < num_lps(); ++lp) {
      shared_.workers[pmap_.owner(lp) % workers].list.push_back(lp);
    }
  } else {
    for (uint32_t g = 0; g < groups_; ++g) {
      const std::vector<uint32_t>& owned = pmap_.owned(g);
      for (size_t i = 0; i < owned.size(); ++i) {
        shared_.workers[g * lanes + i % lanes].list.push_back(owned[i]);
      }
    }
  }
  // A worker never claims more LPs than its group holds, so reserving that
  // much keeps the per-round list swap free of allocations.
  for (uint32_t w = 0; w < workers; ++w) {
    const size_t group_lps =
        lane_owned_ ? num_lps() : pmap_.owned(w / lanes).size();
    shared_.workers[w].list.reserve(group_lps);
    shared_.workers[w].claimed.reserve(group_lps);
  }
  layout_workers_ = workers;
}

void RoundKernel::Prologue() {
  // Every worker read the flag after the phase-1 crossing, before arriving at
  // the crossing this prologue completes. Cleared only when set, so the
  // flags' line is not rewritten in rounds without a mid-round global.
  if (flags_.global_scheduled) {
    flags_.global_scheduled = false;
  }
  if (!sync_.ComputeWindow()) {
    return;
  }
  Worker* const workers = shared_.workers.get();
  // Load-adaptive scheduling: re-sort each own list every `period_` rounds,
  // in place by the LPT key (estimate desc, LpId asc).
  const bool resort = claim_metric_ != SchedulingMetric::kNone &&
                      sync_.round_index() % period_ == 0;
  const std::vector<uint64_t>* cost = &last_round_ns_;
  if (resort) {
    if (claim_metric_ == SchedulingMetric::kByPendingEventCount) {
      EstimateByPendingEvents(lps_, sync_.window(), &cost_buf_);
      cost = &cost_buf_;
    }
    for (uint32_t w = 0; w < live_workers_; ++w) {
      std::vector<uint32_t>& list = workers[w].list;
      SortByCostDescending(list.data(), list.data() + list.size(), *cost);
    }
  }
  // events_before comes from the end-of-round barrier's fused count — the
  // live cross-worker total as of the last reduction (0 for round 0).
  sync_.CommitRound(sync_.reduced_events());
  if (resort && sync_.recording()) {
    // The recorded claim order is each group's priority order: all of its
    // LPs under the LPT key, whichever lane's list holds them.
    claim_order_.clear();
    if (sync_.claim_orders_recorded()) {
      size_t group_begin = 0;
      for (uint32_t w = 0; w < live_workers_; ++w) {
        claim_order_.insert(claim_order_.end(), workers[w].list.begin(),
                            workers[w].list.end());
        if ((w + 1) % shared_.lanes == 0) {
          SortByCostDescending(claim_order_.data() + group_begin,
                               claim_order_.data() + claim_order_.size(),
                               *cost);
          group_begin = claim_order_.size();
        }
      }
    }
    sync_.RecordClaimOrder(claim_order_);
  }
  for (uint32_t w = 0; w < live_workers_; ++w) {
    workers[w].claim.range.Reset(static_cast<uint32_t>(workers[w].list.size()));
    workers[w].claim.lps = workers[w].list.data();
  }
}

void RoundKernel::RoundLoop(uint32_t worker) {
  CombiningBarrier& barrier = *shared_.barrier;
  const std::unique_ptr<Lp>* const lps = shared_.lps;
  const uint32_t lanes = shared_.lanes;
  const uint32_t lane = worker % lanes;
  Worker* const group = shared_.workers.get() + (worker - lane);
  Worker& self = group[lane];
  Profiler* const rows = window_rows();
  const bool record = rows != nullptr && rows->per_lp;
  // Per-LP wall time feeds the last-round-time metric even when nothing is
  // recorded; the phase intervals are read only for the recorder.
  const bool timing = shared_.timing;
  uint64_t events = 0;
  uint64_t steals = 0;
  uint64_t messages = 0;
  // Worker-local round index: every worker executes the same loop iterations,
  // so this mirrors sync_.round_index() without reading shared state. It keys
  // the accountant's executor-private per-round rows, which lets every sync
  // wait — including the end-of-round crossing, whose completion runs the
  // next round's prologue — be attributed to its round without data races.
  uint32_t round = 0;
  PhaseAccountant acct(worker, rows);
  // The end-of-round crossing's completion: absorb the fused reduction and
  // open the next round before anyone is released into it.
  const auto next_round = [this, &barrier] {
    sync_.Absorb(barrier);
    Prologue();
  };

  acct.OpenInterval();
  while (!sync_.done()) {
    acct.BeginRound(round);

    // Phase 1: process events. The worker claims its own list from the head,
    // then visits the other lanes of its group in lane order and steals from
    // their tails while a victim has at least two unclaimed LPs. The whole
    // phase closes into P, so claim and bookkeeping overhead is attributed
    // alongside the per-LP work it exists to distribute.
    const Time window = sync_.window();
    for (uint32_t hop = 0; hop < lanes;) {
      ClaimLine& line = group[(lane + hop) % lanes].claim;
      uint32_t i = 0;
      if (hop == 0 ? !line.range.TakeFront(&i) : !line.range.StealBack(&i)) {
        ++hop;
        continue;
      }
      steals += hop != 0 ? 1 : 0;
      const LpId lp_id = line.lps[i];
      self.claimed.push_back(lp_id);
      Lp* const lp = lps[lp_id].get();
      // Capped like EstimateByPendingEvents: an uncapped CountBefore is a
      // full recursive heap walk per LP per round, and the heatmap/cost-model
      // consumers only need "how busy", never exact counts past the cap.
      const uint32_t pending =
          record ? static_cast<uint32_t>(
                       lp->fel().CountBefore(window, kPendingCountCap))
                 : 0;
      const uint64_t lp_t0 = timing ? Profiler::NowNs() : 0;
      const uint64_t n = lp->ProcessUntil(window);
      events += n;
      if (timing) {
        const uint64_t lp_ns = Profiler::NowNs() - lp_t0;
        last_round_ns_[lp_id] = lp_ns;
        if (record) {
          rows->AddLpRound(worker,
                           LpRoundCost{round, lp_id, static_cast<uint32_t>(n),
                                       pending, lp_ns});
        }
      }
    }
    acct.CloseProcessing();
    self.events = events;  // Published by the barrier for LiveEvents.
    barrier.Arrive(worker);
    acct.CloseSync();
    // No thief reads a list past the phase-1 crossing: the LPs this worker
    // claimed become its own list, drained and folded below by the core
    // that ran them, and claimed first next round.
    self.list.swap(self.claimed);
    self.claimed.clear();

    // Phase 2: global events, worker 0 only, in rounds where one is due: the
    // prologue saw the public FEL's next event at or below the LBTS, or an LP
    // event scheduled a global mid-round (ScheduleGlobal's locked path; the
    // barrier above publishes the flag). Every worker reads the same two
    // inputs after the same crossing, so all of them cross or skip the
    // phase's barrier together. While worker 0 runs it, everyone else waits
    // at that barrier, so direct cross-LP insertion is safe.
    if (sync_.globals_due() || flags_.global_scheduled) {
      if (worker == 0) {
        events += RunGlobalEvents(sync_.lbts(), sync_.stop());
        acct.CloseProcessing();
      }
      barrier.Arrive(worker);
      acct.CloseSync();
    }

    // Phase 3: receive events from mailboxes — intra- and inter-group alike.
    // The claims partition all LPs, so every inbox is drained exactly once.
    for (uint32_t id : self.list) {
      messages += lps[id]->DrainInboxes();
    }

    // Phase 4: update the window — fold the list into a local minimum and
    // contribute it, with the event count and stop vote, to the end-of-round
    // barrier's fused reduction. No barrier separates it from phase 3: a
    // worker folds exactly the LPs it just drained, so no FEL is read across
    // workers between the two. No shared CAS line: the tree combine IS the
    // all-reduce.
    const uint32_t flags = stop_requested() ? CombiningBarrier::kStopFlag : 0;
    int64_t local_min_ps = INT64_MAX;
    for (uint32_t id : self.list) {
      local_min_ps = std::min(local_min_ps, lps[id]->fel().NextTimestamp().ps());
    }
    acct.CloseMessaging();
    // End-of-round crossing: its completer runs the next round's prologue,
    // so the crossing's wait — prologue included — closes into this round's
    // S.
    const uint64_t barrier_t0 =
        worker == 0 && sync_.recording() ? Profiler::NowNs() : 0;
    barrier.Arrive(worker, local_min_ps, events, flags, next_round);
    if (worker == 0 && sync_.recording()) {
      sync_.RecordBarrierWait(round, Profiler::NowNs() - barrier_t0,
                              barrier.parks());
    }
    acct.CloseSync();
    ++round;
  }

  self.events = events;
  self.steals = steals;
  self.messages = messages;
  acct.set_events(events);  // Destructor flushes the totals to the window.
}

}  // namespace unison
