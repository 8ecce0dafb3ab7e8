// Umbrella header: everything a downstream user of the Unison reproduction
// needs. Examples and benches include only this.
#ifndef UNISON_SRC_UNISON_H_
#define UNISON_SRC_UNISON_H_

#include "src/core/event.h"
#include "src/core/rng.h"
#include "src/core/time.h"
#include "src/costmodel/cost_model.h"
#include "src/kernel/kernel.h"
#include "src/kernel/simulator.h"
#include "src/net/app.h"
#include "src/net/network.h"
#include "src/net/udp.h"
#include "src/partition/fine_grained.h"
#include "src/partition/manual.h"
#include "src/sched/lpt.h"
#include "src/stats/digest.h"
#include "src/stats/flow_monitor.h"
#include "src/stats/profiler.h"
#include "src/stats/trace.h"
#include "src/topo/bcube.h"
#include "src/topo/fat_tree.h"
#include "src/topo/spine_leaf.h"
#include "src/topo/torus.h"
#include "src/topo/dragonfly.h"
#include "src/topo/lan.h"
#include "src/topo/wan.h"
#include "src/traffic/cdf.h"
#include "src/traffic/generator.h"
#include "src/traffic/trace.h"

#endif  // UNISON_SRC_UNISON_H_
