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
  chunk_pool_ = std::make_unique<ChunkPool>();
  for (uint32_t w = 0; w < MaxExecutors(); ++w) {
    shared_.workers[w].chunks.set_pool(chunk_pool_.get());
  }
  for (const std::unique_ptr<Lp>& lp : lps_) {
    lp->Attach(&shared_.workers[0].chunks, 0);
  }
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
  // crossing. Workers contribute their partial minima at the end of each
  // round, so round 0's reduction is seeded from the LPs.
  sync_.FoldLpHeads();
  Prologue(0);

  active_pool_->Run([this](uint32_t worker) { RoundLoop(worker); });

  // The last round's sends are still in its parity's lanes.
  const uint64_t delivered = DrainAll(0b11);
  processed_events_ = LiveEvents();
  rounds_ = sync_.round_index();
  window_steals_ = 0;
  window_messages_ = 0;
  if (sync_.recording()) {
    window_messages_ = delivered;
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

uint64_t RoundKernel::DrainAll(uint32_t parities) {
  ChunkCache* const chunks = &shared_.workers[0].chunks;
  uint64_t received = 0;
  for (const std::unique_ptr<Lp>& lp : lps_) {
    lp->Attach(chunks, 0);
    for (uint32_t parity = 0; parity < 2; ++parity) {
      if ((parities >> parity & 1) != 0) {
        received += lp->DrainInboxes(parity);
      }
    }
  }
  return received;
}

RunReason RoundKernel::StepLoop(Time stop) {
  const uint32_t n = num_lps();
  std::vector<int64_t>& head = head_ps_;
  head.resize(n);
  uint64_t events = 0;
  uint64_t messages = 0;
  // Every LP sends to, and drains, lane 0 (mailbox.h): the loop is alone.
  // Moves every mailbox into its FEL and re-reads every head from it.
  const auto settle = [&] {
    messages += DrainAll(0b01);
    for (uint32_t i = 0; i < n; ++i) {
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
    messages += lp->DrainInboxes(0);
    events += lp->ProcessUntil(Time::Picoseconds(bound));
    head[a] = lp->fel().NextTimestamp().ps();
    // Lazy delivery: the sends stay in the outboxes until their target's
    // next step; only the target's head learns of them now.
    for (const std::unique_ptr<Outbox>& box : lp->outboxes()) {
      int64_t& target = head[box->target];
      target = std::min(target, box->lanes[0].min_ps);
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

void RoundKernel::Prologue(uint64_t globals) {
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
  // live cross-worker total as of the last reduction (0 for round 0) — plus
  // the globals its completion ran after the reduction.
  sync_.CommitRound(sync_.reduced_events() + globals);
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
  // wait — including the crossing whose completion runs the next round's
  // prologue — be attributed to its round without data races, and its parity
  // picks the mailbox lanes.
  uint32_t round = 0;
  PhaseAccountant acct(worker, rows);
  // The crossing's completion, run by the one worker that completes it while
  // the others wait: absorb the fused reduction, run the globals due at or
  // below this round's LBTS (an LP event may have scheduled one mid-round),
  // lower the minimum to the FEL heads they may have changed, and open the
  // next round before anyone is released into it. The globals count as this
  // worker's events and P.
  const auto next_round = [this, &barrier, &acct, &events] {
    sync_.Absorb(barrier);
    const Time npub = public_lp_->fel().NextTimestamp();
    uint64_t globals = 0;
    if (!npub.IsMax() && npub <= sync_.lbts()) {
      acct.CloseSync();
      globals = RunGlobalEvents(sync_.lbts(), sync_.stop());
      events += globals;
      sync_.FoldLpHeads();
      acct.CloseProcessing();
    }
    Prologue(globals);
  };

  acct.OpenInterval();
  while (!sync_.done()) {
    acct.BeginRound(round);
    const uint32_t parity = round & 1;

    // The worker claims its own list from the head, then visits the other
    // lanes of its group in lane order and steals from their tails while a
    // victim has at least two unclaimed LPs. Claim overhead, processing and
    // the fold close into P, the drains into M.
    const Time window = sync_.window();
    int64_t local_min_ps = INT64_MAX;
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
      // Receive last round's sends, which its crossing completed; this
      // round's go to the other lane.
      lp->Attach(&self.chunks, parity);
      acct.CloseProcessing();
      messages += lp->DrainInboxes(parity ^ 1);
      acct.CloseMessaging();
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
      // Fold: nothing changes this FEL again this round (other LPs' sends
      // wait in its inboxes, counted by their senders), and its own sends
      // wait in this round's lanes until the next.
      local_min_ps = std::min(
          {local_min_ps, lp->fel().NextTimestamp().ps(), lp->SentMin()});
    }
    acct.CloseProcessing();
    // The claims become the worker's own list, claimed first next round. Its
    // list's range is empty, so no thief takes from it again this round.
    self.list.swap(self.claimed);
    self.claimed.clear();
    self.events = events;  // Published by the barrier for LiveEvents.

    // The crossing: the fused reduction, then the completion above. Its
    // wait — completion included — closes into this round's S.
    const uint32_t flags = stop_requested() ? CombiningBarrier::kStopFlag : 0;
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
