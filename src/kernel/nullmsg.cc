#include "src/kernel/nullmsg.h"

#include <algorithm>
#include <string>

#include "src/kernel/engine/phase_accountant.h"

namespace unison {

void NullMessageKernel::Setup(const TopoGraph& graph, const Partition& partition) {
  Kernel::Setup(graph, partition);
  channels_.clear();
  channel_of_pair_.clear();
  chans_.clear();
  chans_.resize(num_lps());
  ctl_.clear();
  for (uint32_t i = 0; i < num_lps(); ++i) {
    ctl_.push_back(std::make_unique<ExecCtl>());
  }
  // One channel per directed cut pair; its lookahead is the minimum delay of
  // the cut links between the pair. The pair map makes wiring O(E) instead of
  // O(E·C), and stays live for ScheduleRemote's channel lookups.
  channel_of_pair_.reserve(partition_.cut_edges.size() * 2);
  for (const CutEdge& edge : partition_.cut_edges) {
    for (const auto& [src, dst] : {std::pair{edge.a, edge.b}, std::pair{edge.b, edge.a}}) {
      auto [it, inserted] = channel_of_pair_.try_emplace(PairKey(src, dst), nullptr);
      if (inserted) {
        channels_.push_back(std::make_unique<Channel>());
        Channel* const c = channels_.back().get();
        c->from = src;
        c->to = dst;
        c->lookahead = edge.delay;
        chans_[src].out.push_back(c);
        chans_[dst].in.push_back(c);
        it->second = c;
      } else {
        it->second->lookahead = std::min(it->second->lookahead, edge.delay);
      }
    }
  }
  for (const auto& c : channels_) {
    if (c->lookahead.IsZero()) {
      FatalConfigError("NullMessageKernel: zero-lookahead channel " +
                       std::to_string(c->from) + "->" + std::to_string(c->to) +
                       "; the partition must not cut zero-delay links");
    }
  }
  active_pool_ = external_pool_ != nullptr ? external_pool_ : &pool_;
  if (active_pool_ == &pool_) {
    pool_.SetPlacement(config_.affinity);
  }
  active_pool_->Ensure(num_lps());
}

void NullMessageKernel::DrainTransportForSnapshot() {
  for (const auto& c : channels_) {
    std::lock_guard<std::mutex> lock(c->mu);
    for (Event& ev : c->events) {
      lps_[c->to]->Insert(std::move(ev));
    }
    c->events.clear();
  }
}

void NullMessageKernel::ScheduleRemote(Lp* from, LpId target, Event ev) {
  const auto it = channel_of_pair_.find(PairKey(from->id(), target));
  if (it == channel_of_pair_.end()) {
    FatalConfigError("NullMessageKernel: no channel " + std::to_string(from->id()) +
                     "->" + std::to_string(target));
  }
  Channel* const chan = it->second;
  // Piggy-backed promise: sender send-times are nondecreasing, so no future
  // message on this channel can carry a timestamp below now + lookahead.
  // (The message's own ts is not a valid promise — with several links pooled
  // into one channel, arrival timestamps are not monotone.)
  const int64_t promise = (from->now() + chan->lookahead).ps();
  {
    std::lock_guard<std::mutex> lock(chan->mu);
    chan->events.push_back(std::move(ev));
    chan->clock_ps = std::max(chan->clock_ps, promise);
  }
  Signal(target);
}

void NullMessageKernel::Signal(LpId target) {
  ExecCtl& ctl = *ctl_[target];
  {
    std::lock_guard<std::mutex> lock(ctl.mu);
    ++ctl.signal;
  }
  ctl.cv.notify_one();
}

RunResult NullMessageKernel::Run(Time stop_time) {
  // Runtime global events are unsupported; drain globals up to the session
  // resume point (setup-time t = 0 initializers, and anything injected
  // between windows at or below the previous stop) so they still work.
  if (!public_lp_->fel().Empty()) {
    public_lp_->ProcessUntil(resume_floor() + Time::Picoseconds(1));
    if (!public_lp_->fel().Empty()) {
      FatalConfigError(
          "NullMessageKernel: global events beyond the session resume point "
          "are not supported by this baseline");
    }
  }
  // The party count is structural (one LP loop per LP), so only placement is
  // live; re-Ensure covers a borrowed pool resized by its owner's tuning.
  tuning_ = SampleTuning(num_lps(), /*parties_tunable=*/false);
  if (active_pool_ == &pool_) {
    pool_.ApplyPlacement(tuning_.affinity);
  }
  active_pool_->Ensure(num_lps());
  // No shared synchronization rounds in this algorithm: the recorded window
  // carries the summary and per-executor P/S/M only.
  BeginWindow("nullmsg", num_lps());
  const uint64_t run_t0 = Profiler::NowNs();
  exec_events_.assign(num_lps(), 0);
  // Reset channel promises so consecutive windows start conservative: the
  // previous window's final clocks (often latched at +inf once every FEL
  // drained) would let this window process events below messages still to be
  // sent. The baseline is the session's resume floor — after a clean window
  // every pending event sits at or past the previous stop, so no future send
  // can promise less — refined down to the earliest pending event anywhere in
  // case work was injected below the floor between windows. Undelivered
  // channel events are kept: they belong to this window.
  Time floor = resume_floor();
  for (const auto& lp : lps_) {
    floor = std::min(floor, lp->fel().NextTimestamp());
  }
  for (const auto& c : channels_) {
    std::lock_guard<std::mutex> lock(c->mu);
    for (const Event& ev : c->events) {
      floor = std::min(floor, ev.key.ts);
    }
  }
  const int64_t floor_ps = floor.IsMax() ? 0 : floor.ps();
  for (const auto& c : channels_) {
    std::lock_guard<std::mutex> lock(c->mu);
    c->clock_ps = floor_ps;
    c->nulls = 0;
  }

  Profiler* const rows = window_rows();
  active_pool_->Run(
      [this, stop_time, rows](uint32_t ex) { ExecLoop(ex, stop_time, rows); });

  processed_events_ = 0;
  for (uint64_t n : exec_events_) {
    processed_events_ += n;
  }
  null_messages_ = 0;
  for (const auto& c : channels_) {
    null_messages_ += c->nulls;
  }

  // This kernel has no coordinator prologue to classify the exit, so decide
  // here: all events below the stop time were executed, hence anything left
  // pending marks a window boundary rather than exhaustion.
  RunReason reason = RunReason::kStopRequested;
  if (!stop_requested()) {
    bool pending = !public_lp_->fel().Empty();
    for (const auto& lp : lps_) {
      pending = pending || !lp->fel().Empty();
    }
    for (const auto& c : channels_) {
      std::lock_guard<std::mutex> lock(c->mu);
      pending = pending || !c->events.empty();
    }
    reason = pending ? RunReason::kWindowReached : RunReason::kExhausted;
  }
  return FinishRun("nullmsg", num_lps(), Profiler::NowNs() - run_t0, stop_time,
                   reason);
}

void NullMessageKernel::ExecLoop(uint32_t ex, Time stop, Profiler* rows) {
  Lp* const lp = lps_[ex].get();
  const LpChans& ch = chans_[ex];
  ExecCtl& ctl = *ctl_[ex];
  uint64_t events = 0;
  uint64_t rounds = 0;
  // "Rounds" are executor-local iterations here; they still key
  // executor-private per-round rows so the rows-sum-to-totals invariant holds
  // for this kernel too, even though iteration counts differ per executor.
  PhaseAccountant acct(ex, rows);
  // The receive phase swaps each input channel with this buffer and clears
  // it after the inserts, so the channel and the buffer both keep their
  // capacity and a steady-state send never allocates.
  std::vector<Event> got;

  for (;;) {
    uint64_t sig;
    {
      std::lock_guard<std::mutex> lock(ctl.mu);
      sig = ctl.signal;
    }
    acct.BeginRound(static_cast<uint32_t>(rounds));
    acct.OpenInterval();

    // Receive: drain input channels, note their clocks.
    Time safe_in = Time::Max();
    for (Channel* c : ch.in) {
      {
        std::lock_guard<std::mutex> lock(c->mu);
        got.swap(c->events);
        safe_in = std::min(safe_in, Time::Picoseconds(c->clock_ps));
      }
      for (Event& ev : got) {
        lp->Insert(std::move(ev));
      }
      got.clear();
    }
    acct.CloseMessaging();

    // Process below the conservative bound.
    const Time bound = std::min(safe_in, stop);
    events += lp->ProcessUntil(bound);
    acct.CloseProcessing();

    // Refresh output promises (eager null messages).
    const Time horizon = std::min(lp->fel().NextTimestamp(), safe_in);
    for (Channel* c : ch.out) {
      const int64_t promise =
          horizon.IsMax() ? INT64_MAX : (horizon + c->lookahead).ps();
      bool raised = false;
      {
        std::lock_guard<std::mutex> lock(c->mu);
        if (promise > c->clock_ps) {
          c->clock_ps = promise;
          ++c->nulls;
          raised = true;
        }
      }
      if (raised) {
        Signal(c->to);
      }
    }
    acct.CloseMessaging();
    ++rounds;

    // Done once everything below the stop time has been processed and the
    // final promises sent.
    if (bound >= stop || stop_requested()) {
      break;
    }

    // Block until some input channel changes.
    {
      std::unique_lock<std::mutex> lock(ctl.mu);
      ctl.cv.wait(lock, [&ctl, sig] { return ctl.signal != sig; });
    }
    acct.CloseSync();
  }

  exec_events_[ex] = events;
  if (ex == 0) {
    rounds_ = rounds;
  }
  acct.set_events(events);  // Destructor flushes the totals to the window.
}

}  // namespace unison
