// Umbrella header: the full obiswap public API.
//
// obiswap is a C++ reproduction of "Object-Swapping for Resource-
// Constrained Devices" (Veiga & Ferreira, ICDCS 2007) — the OBIWAN
// middleware's swap-cluster mechanism plus every substrate it runs on.
// See README.md for the architecture tour and examples/ for usage.
#pragma once

#include "baseline/compression.h"       // heap-compression comparator
#include "baseline/naive_proxy.h"       // per-object surrogate comparator
#include "common/ids.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "compress/codec.h"             // LZ77 / RLE codecs
#include "context/context.h"            // memory & connectivity monitors
#include "context/events.h"             // middleware event bus
#include "dgc/dgc.h"                    // device<->server reference-listing DGC
#include "fleet/driver.h"               // fleet-scale simulation harness
#include "fleet/placement.h"            // rendezvous placement directory
#include "net/bridge.h"                 // XML web-service bridge + discovery
#include "net/network.h"                // simulated wireless neighbourhood
#include "net/store_node.h"             // the dumb XML store device
#include "persist/flash_store.h"        // local flash fallback
#include "policy/engine.h"              // declarative XML policies
#include "policy/standard_actions.h"
#include "prefetch/fault_history.h"     // predictive prefetch: fault order
#include "prefetch/predictor.h"
#include "prefetch/prefetcher.h"        // budgeted background swap-in
#include "replication/device.h"         // incremental replication, faults
#include "replication/server.h"
#include "replication/transport.h"
#include "runtime/runtime.h"            // managed heap, LGC, invocation
#include "serialization/graph_xml.h"    // object graph <-> XML
#include "serialization/schema_xml.h"   // class schemas as XML
#include "swap/durability.h"            // replica upkeep under store churn
#include "swap/manager.h"               // THE contribution: object-swapping
#include "swap/proxy.h"
#include "swap/swap_cluster.h"
#include "telemetry/journal.h"          // post-mortem event ring
#include "telemetry/metrics.h"          // counters / gauges / histograms
#include "telemetry/telemetry.h"        // the per-instance bundle
#include "telemetry/tracer.h"           // virtual-clock spans -> Chrome JSON
#include "tier/tier.h"                  // compressed-RAM + flash swap tiers
#include "tx/transaction.h"             // optimistic replica transactions
#include "tx/transport.h"
#include "xml/parser.h"
#include "xml/writer.h"
