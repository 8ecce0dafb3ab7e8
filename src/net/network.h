// The public entry point of the library.
//
// A Network owns the topology (nodes, links, queues), the kernel, routing,
// traffic bookkeeping and statistics. The user builds a topology, installs
// flows, and calls Run — which kernel executes the model, and with how many
// threads, is purely a SimConfig choice. No model code changes between the
// sequential kernel and any parallel kernel: that is the paper's
// user-transparency property.
//
//   unison::SimConfig cfg;
//   cfg.kernel.type = unison::KernelType::kUnison;
//   cfg.kernel.threads = 8;
//   unison::Network net(cfg);
//   auto ft = unison::BuildFatTree(net, /*k=*/4, ...);
//   unison::InstallFlow(net, {.src = ft.hosts[0], .dst = ft.hosts[8],
//                             .bytes = 1 << 20, .start = unison::Time::Zero()});
//   net.Run(unison::Time::Seconds(0.1));
//   auto summary = net.flow_monitor().Summarize();
#ifndef UNISON_SRC_NET_NETWORK_H_
#define UNISON_SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/control/controller.h"
#include "src/control/tunables.h"
#include "src/core/rng.h"
#include "src/core/time.h"
#include "src/kernel/kernel.h"
#include "src/kernel/simulator.h"
#include "src/net/node.h"
#include "src/net/routing.h"
#include "src/net/tcp.h"
#include "src/partition/graph.h"
#include "src/stats/flow_monitor.h"
#include "src/stats/trace.h"

namespace unison {

class CheckpointStore;
class ExecutorPool;
class FlowSourceSet;

// Deletes the speculation checkpoint store, a type src/net/session.cc alone
// completes.
struct CheckpointStoreDeleter {
  void operator()(CheckpointStore* store) const;
};

enum class PartitionMode {
  kAuto,    // Fine-grained partition (Algorithm 1). Unison's default.
  kManual,  // User-provided node→LP map (the baselines' required workflow).
  kSingle,  // Everything in one LP (forced for the sequential kernel).
};

struct QueueConfig {
  enum class Kind { kDropTail, kRed, kDctcp } kind = Kind::kDropTail;
  uint32_t capacity_bytes = 1000 * 1500;
  // RED parameters (bytes); also reused as the DCTCP K threshold (min_th).
  double red_min_th = 50 * 1500;
  double red_max_th = 150 * 1500;
  double red_max_p = 0.1;
  double red_weight = 0.002;
};

// Live tuning plane switch. kOff freezes every knob at its KernelConfig
// value (the historical behaviour); kAuto attaches a Controller that revises
// the live tunables (re-sort cadence, active parties, placement, window
// horizon) between Run() windows from the trace segments. Results are
// bit-identical either way — the controller only ever acts at window
// boundaries, and every knob it touches is results-neutral.
enum class TuningMode : uint8_t {
  kOff = 0,
  kAuto = 1,
};

// Speculative window execution (DESIGN.md §3k). kOff runs every window at the
// conservative Eq. 2 bound. kAuto captures a cheap in-memory checkpoint at
// each window boundary and lets rounds extend up to the live spec-horizon
// tunable past the bound; a causality miss rolls the session back and re-runs
// the window conservatively. Results are bit-identical either way — that is
// the feature's contract, enforced by the transparency matrix in
// tests/session_test.cc. Opt-in kernels: barrier, unison, hybrid (the
// sequential kernel has nothing to speculate past; null-message's channel
// protocol pins its bounds).
enum class SpeculationMode : uint8_t {
  kOff = 0,
  kAuto = 1,
};

struct SimConfig {
  KernelConfig kernel;
  PartitionMode partition = PartitionMode::kAuto;
  uint64_t seed = 1;
  // The run recorder (src/stats/trace.h) is on when any of `trace`,
  // `profile_per_lp` or tuning=kAuto is set; a recorded window always keeps
  // its round records and per-round P/S/M rows. Only `trace` keeps every
  // window of the session; otherwise the recorder holds the last one.
  //
  // Per-(round, LP) costs for the cost model and heatmaps; O(rounds x LPs).
  bool profile_per_lp = false;
  // Structured run trace for export (JSON/CSV).
  bool trace = false;
  // Record claim orders on re-sort rounds (O(#LP) each); only a user trace
  // keeps them.
  bool trace_claim_order = true;
  // Closed-loop tuning (src/control/). kAuto records every window, since the
  // segments are the controller's input.
  TuningMode tuning = TuningMode::kOff;
  ControllerConfig tuning_config;
  // Speculative window execution; kAuto seeds the live spec-horizon tunable
  // from tuning_config.spec_horizon_initial_ps and installs the checkpoint
  // hooks at Finalize. Requires kernel.deterministic (the default).
  SpeculationMode speculation = SpeculationMode::kOff;
  // Automatic resume checkpoints: at every completed Run() window, Run()
  // saves a full USNP snapshot to this path (overwritten in place), so a
  // killed long sim resumes from the last boundary via LoadFrom +
  // Session::Restore instead of t=0. Empty disables. Boundaries where the
  // session is not snapshot-serializable (e.g. a progress ticker pending)
  // are skipped.
  std::string auto_checkpoint_path;
  TcpConfig tcp;
  QueueConfig queue;
};

class Network {
 public:
  explicit Network(SimConfig config);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- Topology construction (before Finalize) ---

  NodeId AddNode();
  void AddNodes(uint32_t count);

  struct LinkInfo {
    NodeId a = 0;
    NodeId b = 0;
    uint32_t port_a = 0;
    uint32_t port_b = 0;
    uint64_t bps = 0;
    Time delay;
    bool up = true;
    // Stateless links (plain point-to-point) may be cut by the partitioner;
    // stateful links (shared-medium segments) never are (§4.2).
    bool stateless = true;
    // The queue discipline this link's devices were built with; recorded so
    // a snapshot can rebuild (or a fork deliberately mutate) the queues.
    QueueConfig queue;
  };

  // Adds a full-duplex link; returns its index. Uses the default QueueConfig
  // unless an override is given.
  uint32_t AddLink(NodeId a, NodeId b, uint64_t bps, Time delay);
  uint32_t AddLink(NodeId a, NodeId b, uint64_t bps, Time delay, const QueueConfig& queue,
                   bool stateless = true);

  void SetManualPartition(uint32_t num_lps, std::vector<LpId> lp_of_node);

  // Enables RIP-like distance-vector routing (otherwise: global ECMP).
  void EnableDistanceVector(Time period);

  // Periodic progress report via a self-rescheduling global event (§4.2's
  // "printing the simulation progress"). The callback runs on the public LP
  // every `interval` of simulated time; the default prints to stderr. Call
  // after Finalize, before Run.
  void EnableProgressReport(Time interval,
                            std::function<void(Time now, uint64_t events)> callback = {});

  // Builds the partition, kernel and routing tables, producing a warm
  // session: executor threads spawn here and stay parked between windows.
  // Implicit in Run; after this point flows may be installed and events
  // scheduled.
  void Finalize();
  bool finalized() const { return kernel_ != nullptr; }

  // Runs one window of the session: events with ts < `stop` execute, then
  // the kernel parks. Call repeatedly with increasing stop times to advance
  // the same simulation in windows — model and event state carries across
  // calls, more flows may be installed in between (see InjectTraffic), and K
  // windowed runs are bit-identical to one monolithic run to the same stop
  // time. The result says whether the window boundary was reached, the
  // workload ran dry, or an early stop fired.
  RunResult Run(Time stop);

  // Simulated time up to which the session has run (last completed window's
  // stop); zero before the first Run. Fatal before Finalize: callers that
  // rebase times against the session clock (InjectTraffic and friends) would
  // silently anchor at t=0 on an unopened session otherwise.
  Time session_time() const {
    if (kernel_ == nullptr) {
      FatalConfigError(
          "Network: session_time() before Finalize(); the session clock "
          "exists only once the session is open — call Finalize() (or Run) "
          "first");
    }
    return kernel_->session_now();
  }

  // Schedules an administrative failure of `link` at absolute session time
  // `t`, as a global event (topology changes run on the public LP). The
  // canonical fork-divergence knob: snapshot a warm session, fork, and fail
  // a different link in each branch. Note the null-message kernel does not
  // support runtime global events; use it with the other kernels.
  void FailLink(uint32_t link, Time t);

  // --- Runtime topology operations (call from global events only) ---

  void SetLinkUp(uint32_t link, bool up);
  void SetLinkDelay(uint32_t link, Time delay);
  // Recomputes ECMP routes and the kernel's lookahead; called automatically
  // by SetLinkUp/SetLinkDelay.
  void OnTopologyChanged();

  // --- Accessors ---

  Node& node(NodeId id) { return *nodes_[id]; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  const std::vector<LinkInfo>& links() const { return links_; }

  Simulator& sim() { return sim_; }
  Kernel& kernel() { return *kernel_; }
  // The session's live-tunable store. Always present (seeded from the
  // KernelConfig at Finalize); written by the controller under kAuto, by
  // Session restore, or by tests driving tuning by hand between windows.
  TunableStore& tunable_store() { return tunable_store_; }
  const TunableStore& tunable_store() const { return tunable_store_; }
  // The attached controller, or nullptr when tuning is kOff.
  Controller* controller() { return controller_.get(); }
  FlowMonitor& flow_monitor() { return flow_monitor_; }
  // The speculation checkpoint store (src/net/session.h), present from
  // Finalize under speculation=auto when the kernel may speculate
  // (Kernel::MaySpeculate) and routing is global. While it is, nodes and TCP
  // endpoints mark what they change for it.
  CheckpointStore* checkpoint_store() const { return checkpoint_store_.get(); }
  RunTrace& run_trace() { return run_trace_; }
  GlobalRouting& routing() { return routing_; }
  DistanceVectorRouting* dv_routing() { return dv_routing_.get(); }
  const SimConfig& config() const { return config_; }
  const TopoGraph& graph() const { return graph_; }
  const Partition& partition() const { return kernel_->partition(); }

  // Independent RNG stream derived from the config seed.
  Rng MakeRng(uint64_t stream) const { return Rng(config_.seed, stream); }

  // Derives a distinct stream id from `base` for each traffic injection into
  // this session: the first injection uses `base` verbatim (so a single
  // injection matches an up-front install on the same stream), later ones
  // jump by a large odd constant. InjectTraffic/InjectFlowSources call this
  // so repeated injections never silently replay the previous batch's draws.
  uint64_t ClaimInjectionStream(uint64_t base) {
    return base + injection_epoch_++ * 0x9e3779b97f4a7c15ULL;
  }

  // The injection counter is session state: snapshots capture it so sibling
  // forks claim the same next stream (identical injections draw identical
  // flows) while the parent's post-snapshot injections stay independent.
  uint64_t injection_epoch() const { return injection_epoch_; }
  void set_injection_epoch(uint64_t epoch) { injection_epoch_ = epoch; }

  // --- Streaming flow-source registry (snapshot support) ---

  // Retains `set` for the network's lifetime and assigns it a dense index;
  // scheduled arrival events reference sources as (set index, source index)
  // so they can be serialized and rebound to a forked network. Called by
  // InstallFlowSources for every set, in installation order — which is why
  // indices line up between a parent and its forks.
  uint32_t RegisterFlowSourceSet(std::shared_ptr<FlowSourceSet> set);
  FlowSourceSet* flow_source_set(uint32_t index);
  uint32_t num_flow_source_sets() const {
    return static_cast<uint32_t>(flow_source_sets_.size());
  }

  // Lends the executor pool of another (live, quiescent) kernel to this
  // network's kernel. Must be called before Finalize; Session::Fork uses it
  // so branch runs reuse the parent's warm workers — zero thread respawns.
  void set_external_pool(ExecutorPool* pool) { pending_external_pool_ = pool; }

  // Retains `obj` for the network's lifetime. For closures scheduled into
  // the kernel that capture raw pointers into long-lived helper objects
  // (progress tickers, streaming flow sources).
  void Keep(std::shared_ptr<void> obj) { keepalive_.push_back(std::move(obj)); }

  std::unique_ptr<Queue> MakeQueue(const QueueConfig& config, uint64_t stream) const;

  // Aggregate queue statistics over every device (paper-style queue-delay
  // reporting for the DCTCP reproduction).
  struct QueueTotals {
    uint64_t dropped = 0;
    uint64_t ecn_marked = 0;
    uint64_t dequeued = 0;
    Time total_delay;
    double mean_delay_us() const {
      return dequeued == 0 ? 0.0 : total_delay.ToMicroseconds() / static_cast<double>(dequeued);
    }
  };
  QueueTotals AggregateQueueStats() const;

 private:
  void BuildGraph();
  // Saves a full USNP resume snapshot to config_.auto_checkpoint_path
  // (skipping non-serializable boundaries). Called by Run() after each
  // window.
  void MaybeAutoCheckpoint();

  SimConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<LinkInfo> links_;
  TopoGraph graph_;
  Partition manual_partition_;
  bool has_manual_partition_ = false;

  std::unique_ptr<Kernel> kernel_;
  TunableStore tunable_store_;
  std::unique_ptr<Controller> controller_;  // Present only under kAuto.
  Simulator sim_;
  FlowMonitor flow_monitor_;
  std::unique_ptr<CheckpointStore, CheckpointStoreDeleter> checkpoint_store_;
  RunTrace run_trace_;
  GlobalRouting routing_;
  std::unique_ptr<DistanceVectorRouting> dv_routing_;
  Time dv_period_;
  bool use_dv_ = false;
  uint64_t injection_epoch_ = 0;
  ExecutorPool* pending_external_pool_ = nullptr;  // Applied at Finalize.
  std::vector<std::shared_ptr<FlowSourceSet>> flow_source_sets_;
  // Closures that must outlive the run (progress tickers etc.).
  std::vector<std::shared_ptr<void>> keepalive_;
};

}  // namespace unison

#endif  // UNISON_SRC_NET_NETWORK_H_
