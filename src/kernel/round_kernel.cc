#include "src/kernel/round_kernel.h"

#include <algorithm>
#include <numeric>

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
    // Rank r starts out owning LP r (the classic 1:1 pinning); the rank
    // count stays structural, but migrations may re-home LPs across it.
    groups_ = num_lps();
    max_lanes_ = 1;
    pmap_.ResetStrided(num_lps(), groups_);
  } else if (config_.type == KernelType::kHybrid) {
    // Coarse host mapping: slice the node-id range into `ranks` blocks (the
    // static partition the barrier algorithm would use) and place each LP on
    // the rank owning its first node, so fine-grained LPs never straddle
    // hosts — until a window-boundary migration re-homes one.
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
    // The domain is the config lane ceiling, not the live count: a move set
    // computed in ceiling units stays meaningful after tuning shrinks the
    // lanes, because owner slots fold modulo the live count in BuildLayout.
    groups_ = 1;
    max_lanes_ = std::max(1u, config_.threads);
    pmap_.ResetStrided(num_lps(), max_lanes_);
  }
  ownership_movable_ = true;
  lanes_ = max_lanes_;
  layout_workers_ = 0;
  last_round_ns_.assign(num_lps(), 0);
  worker_events_.assign(MaxExecutors(), 0);
  cursors_ = std::make_unique<Cursor[]>(groups_);
  barrier_ = std::make_unique<CombiningBarrier>(MaxExecutors());
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
  lanes_ = lanes_tunable_ ? tuning_.parties : 1;
  const uint32_t workers = groups_ * lanes_;
  if (workers != barrier_->parties()) {
    barrier_ = std::make_unique<CombiningBarrier>(workers);
  }
  if (active_pool_ == &pool_) {
    pool_.ApplyPlacement(tuning_.affinity);
  }
  // Re-Ensure every window (no-op when unchanged): a borrowed pool may have
  // been resized by its owner, and tuning resizes ours.
  active_pool_->Ensure(workers);
  ApplyPendingMigrations();
  if (workers != layout_workers_) {
    BuildLayout(workers);
  }

  const uint64_t run_t0 = Profiler::NowNs();
  // Speculation (DESIGN.md §3k): capture the window checkpoint while the
  // session is quiescent; rounds may then extend past the LBTS bound. A
  // causality miss aborts the attempt without touching the session
  // accumulators (FinishRun is skipped), rolls back to the checkpoint, and
  // the loop re-runs the window conservatively — at most one retry, and the
  // conservative attempt cannot miss.
  bool speculate = BeginSpeculativeWindow();
  for (;;) {
    sync_.BeginRun(name_, workers, stop_time);
    if (speculate) {
      sync_.EnableSpeculation(tuning_.spec_horizon_ps);
    }
    sync_.SetParkBaseline(barrier_->parks());
    timing_ = sync_.recording() ||
              claim_metric_ == SchedulingMetric::kByLastRoundTime;
    worker_events_.assign(workers, 0);
    // Seed the min-reduction for the first prologue: workers contribute
    // their partial minima at the end of each round.
    sync_.SeedMinFromLps();

    active_pool_->Run([this](uint32_t worker) { RoundLoop(worker); });

    if (!speculate) {
      break;
    }
    NoteSpecAttempt(sync_.spec_rounds(), sync_.spec_miss());
    if (!sync_.spec_miss()) {
      break;
    }
    speculate = false;
  }

  processed_events_ = LiveEvents();
  rounds_ = sync_.round_index();
  return FinishRun(name_, workers, Profiler::NowNs() - run_t0, stop_time,
                   sync_.reason());
}

void RoundKernel::BuildLayout(uint32_t workers) {
  // Claim orders start ascending by LpId; the first prologue of each window
  // re-sorts them (claim order only affects wall time, never results).
  order_.clear();
  group_begin_.assign(1, 0);
  lists_.assign(workers, {});
  if (lane_owned_) {
    order_.resize(num_lps());
    std::iota(order_.begin(), order_.end(), 0);
    for (uint32_t lp = 0; lp < num_lps(); ++lp) {
      lists_[pmap_.owner(lp) % workers].push_back(lp);
    }
    group_begin_.push_back(num_lps());
  } else {
    for (uint32_t g = 0; g < groups_; ++g) {
      const std::vector<uint32_t>& owned = pmap_.owned(g);
      order_.insert(order_.end(), owned.begin(), owned.end());
      group_begin_.push_back(static_cast<uint32_t>(order_.size()));
      for (size_t i = 0; i < owned.size(); ++i) {
        lists_[g * lanes_ + i % lanes_].push_back(owned[i]);
      }
    }
  }
  layout_workers_ = workers;
}

void RoundKernel::Prologue() {
  // Every worker read last round's flag before the end-of-round barrier that
  // this prologue follows.
  mid_round_global_ = false;
  if (!sync_.ComputeWindow()) {
    return;
  }
  // Load-adaptive scheduling: re-sort each group's claim order every
  // `period_` rounds, in place by the LPT key (estimate desc, LpId asc).
  const bool resort = claim_metric_ != SchedulingMetric::kNone &&
                      sync_.round_index() % period_ == 0;
  if (resort) {
    const std::vector<uint64_t>* cost = &last_round_ns_;
    if (claim_metric_ == SchedulingMetric::kByPendingEventCount) {
      EstimateByPendingEvents(lps_, sync_.window(), &cost_buf_);
      cost = &cost_buf_;
    }
    for (uint32_t g = 0; g < groups_; ++g) {
      SortByCostDescending(order_.data() + group_begin_[g],
                           order_.data() + group_begin_[g + 1], *cost);
    }
  }
  // events_before comes from the end-of-round barrier's fused count — the
  // live cross-worker total as of the last reduction (0 for round 0).
  sync_.CommitRound(sync_.reduced_events());
  if (resort) {
    sync_.RecordClaimOrder(order_);
  }
  for (uint32_t g = 0; g < groups_; ++g) {
    cursors_[g].next.store(0, std::memory_order_relaxed);
  }
}

void RoundKernel::RoundLoop(uint32_t worker) {
  const uint32_t group = worker / lanes_;
  std::atomic<uint32_t>& claim = cursors_[group].next;
  const uint32_t* const order = order_.data() + group_begin_[group];
  const uint32_t claimable = group_begin_[group + 1] - group_begin_[group];
  // Ownership and the layout only change between windows, so the list stays
  // valid and no worker ever observes a mid-window move.
  const std::vector<uint32_t>& mine = lists_[worker];
  Profiler* const rows = window_rows();
  const bool record = rows != nullptr && rows->per_lp;
  uint64_t events = 0;
  // Worker-local round index: every worker executes the same loop iterations,
  // so this mirrors sync_.round_index() without reading shared state. It keys
  // the accountant's executor-private per-round rows, which lets every sync
  // wait — including the end-of-round barrier, which overlaps worker 0's next
  // prologue — be attributed to its round without data races.
  uint32_t round = 0;
  PhaseAccountant acct(worker, timing_, rows);

  for (;;) {
    if (worker == 0) {
      Prologue();
    }
    acct.OpenInterval();
    barrier_->Arrive(worker);
    if (sync_.done()) {
      break;  // Termination wait stays unattributed: it has no round row.
    }
    acct.BeginRound(round);
    acct.CloseSync();

    // Phase 1: process events, claiming the group's LPs in scheduler order.
    // The whole phase closes into P, so claim-cursor and bookkeeping overhead
    // is attributed alongside the per-LP work it exists to distribute.
    const Time window = sync_.window();
    for (;;) {
      const uint32_t i = claim.fetch_add(1, std::memory_order_relaxed);
      if (i >= claimable) {
        break;
      }
      const LpId lp_id = order[i];
      // Capped like EstimateByPendingEvents: an uncapped CountBefore is a
      // full recursive heap walk per LP per round, and the heatmap/cost-model
      // consumers only need "how busy", never exact counts past the cap.
      const uint32_t pending =
          record ? static_cast<uint32_t>(
                       lps_[lp_id]->fel().CountBefore(window, kPendingCountCap))
                 : 0;
      const uint64_t lp_t0 = acct.timing() ? Profiler::NowNs() : 0;
      const uint64_t n = lps_[lp_id]->ProcessUntil(window);
      events += n;
      if (acct.timing()) {
        const uint64_t lp_ns = Profiler::NowNs() - lp_t0;
        last_round_ns_[lp_id] = lp_ns;
        AddLpWindowCost(lp_id, lp_ns);
        if (record) {
          rows->AddLpRound(worker,
                                LpRoundCost{round, lp_id,
                                            static_cast<uint32_t>(n), pending, lp_ns});
        }
      }
    }
    acct.CloseProcessing();
    worker_events_[worker] = events;  // Published by the barrier for LiveEvents.
    barrier_->Arrive(worker);
    acct.CloseSync();

    // Phase 2: global events, worker 0 only, in rounds where one is due: the
    // prologue saw the public FEL's next event at or below the LBTS, or an LP
    // event scheduled a global mid-round (ScheduleGlobal's locked path; the
    // barrier above publishes the flag). Every worker reads the same two
    // inputs after the same crossing, so all of them cross or skip the
    // phase's barrier together. While worker 0 runs it, everyone else waits
    // at that barrier, so direct cross-LP insertion is safe. Under
    // speculation the guard skips the events when a straggler global landed
    // below the covered bound — the next prologue latches the miss.
    if (sync_.globals_due() || mid_round_global_) {
      if (worker == 0) {
        if (sync_.SpecAllowsGlobals()) {
          events += RunGlobalEvents(sync_.lbts(), sync_.stop());
        }
        acct.CloseProcessing();
      }
      barrier_->Arrive(worker);
      acct.CloseSync();
    }

    // Phase 3: receive events from mailboxes — intra- and inter-group alike.
    // The lists partition all LPs, so every inbox is drained exactly once.
    for (uint32_t id : mine) {
      lps_[id]->DrainInboxes();
    }

    // Phase 4: update the window — fold the list into a local minimum and
    // contribute it, with the event count and stop vote, to the end-of-round
    // barrier's fused reduction. No barrier separates it from phase 3: a
    // worker folds exactly the LPs it just drained, so no FEL is read across
    // workers between the two. No shared CAS line: the tree combine IS the
    // all-reduce. When speculative rounds ran, the same fold doubles as the
    // miss check: an inbound arrival at or below an LP's already-advanced
    // clock is a causality violation, flagged into the fused reduction.
    uint32_t flags = stop_requested() ? CombiningBarrier::kStopFlag : 0;
    const bool check_spec = sync_.spec_active();
    int64_t local_min_ps = INT64_MAX;
    for (uint32_t id : mine) {
      Lp* const lp = lps_[id].get();
      const Time next = lp->fel().NextTimestamp();
      local_min_ps = std::min(local_min_ps, next.ps());
      if (check_spec && !next.IsMax() && next <= lp->now() &&
          lp->now() > Time::Zero()) {
        flags |= CombiningBarrier::kSpecMissFlag;
      }
    }
    acct.CloseMessaging();
    // End-of-round barrier: releases with the reduced {min, count, flags}
    // already published, which worker 0 absorbs for the next prologue.
    const uint64_t barrier_t0 =
        worker == 0 && sync_.recording() ? Profiler::NowNs() : 0;
    barrier_->Arrive(worker, local_min_ps, events, flags);
    if (worker == 0) {
      sync_.Absorb(*barrier_);
      if (sync_.recording()) {
        sync_.RecordBarrierWait(Profiler::NowNs() - barrier_t0,
                                barrier_->parks());
      }
    }
    acct.CloseSync();
    ++round;
  }

  worker_events_[worker] = events;
  acct.set_events(events);  // Destructor flushes the totals to the window.
}

}  // namespace unison
