// The interface between the generic run loop (runner.cc) and the four
// workloads (traverse.cc, thrash.cc, fleet.cc).
//
// A workload owns one simulated world. The runner builds it several times
// (set-up time is reported as a median, and the builds must agree byte for
// byte), then drives its operations closed-loop on the one application
// thread: the next op starts only when the previous one has returned.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"

namespace obiswap::runtime {
class Heap;
}  // namespace obiswap::runtime

namespace sysbench {

/// Cumulative program counters and virtual-time histogram buckets, read
/// through public stats accessors. The runner subtracts the snapshot taken
/// when the measured loop starts from the one taken at the end of the
/// deterministic window.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  /// Log2 bucket counts (telemetry::Histogram layout), virtual microseconds.
  std::map<std::string, std::vector<uint64_t>> histograms;
};

/// Wall-clock samples of calls a workload makes inside its ops.
struct SubSamples {
  std::vector<double> invoke_us;  ///< `step` traversals on resident clusters
  std::vector<double> fault_us;   ///< accesses whose cluster was swapped out
  std::vector<double> evict_us;   ///< SwapOutVictim calls
  std::vector<double> poll_us;    ///< DurabilityMonitor::Poll calls
};

/// What a workload sees while running one op.
struct OpContext {
  SpanRecorder& spans;
  SubSamples& samples;
  uint64_t op_id = 0;
};

/// The outcome of one op.
struct OpRecord {
  bool ok = true;
  std::string error;  ///< first failed call or output check
  /// Virtual time of each access in the op whose cluster was swapped out
  /// when the access started (a demand fault).
  std::vector<uint64_t> stall_us;

  void Fail(std::string message) {
    if (ok) error = std::move(message);
    ok = false;
  }
};

/// Shape of the clusters the replay pass builds, and the store pool size
/// its placement directory ranks.
struct ReplayShape {
  int nodes_per_cluster = 0;
  bool outbound = false;  ///< each cluster references the next one
  bool binary = false;    ///< OSWB wire format (else the paper's XML)
  bool lz77 = false;      ///< payloads are lz77-framed (else identity)
  size_t stores = 0;
  size_t replication = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the world from `seed` and runs the warm-up. Returns an error
  /// message, empty on success.
  virtual std::string Setup(uint64_t seed) = 0;

  /// Ops in the deterministic window of a run that measures `seconds`; the
  /// workload schedules its script steps inside that window.
  virtual uint64_t PlanWindow(double seconds) = 0;

  /// Script steps due before op `index` (outside the op's own timing).
  /// Returns an error message, empty on success.
  virtual std::string Before(uint64_t index, OpContext& ctx) {
    (void)index;
    (void)ctx;
    return "";
  }

  virtual void RunOp(OpContext& ctx, OpRecord& record) = 0;

  /// Output checks after the loop. Returns an error message, empty if the
  /// world is intact.
  virtual std::string FinalCheck() { return ""; }

  virtual Snapshot Snap() const = 0;

  /// Deterministic results that are levels, not counters (recovery time,
  /// placement balance); read together with Snap() at the window's end.
  virtual std::map<std::string, double> Results() const { return {}; }

  virtual ReplayShape Shape() const = 0;

  /// Up to `max` store-form payloads as the stores hold them.
  virtual std::vector<std::string> CapturePayloads(size_t max) const {
    (void)max;
    return {};
  }

  /// Timings only this workload's world can give (the replay pass).
  virtual std::map<std::string, double> ReplayOwn(OpContext& ctx) {
    (void)ctx;
    return {};
  }
};

/// Median wall time of a full collection of `heap`, in microseconds: the
/// replay of the LGC on a workload's own live heap.
double CollectUs(obiswap::runtime::Heap& heap);

std::unique_ptr<Workload> MakeTraverse();
std::unique_ptr<Workload> MakeThrashRead();
std::unique_ptr<Workload> MakeThrashWrite();
std::unique_ptr<Workload> MakeFleetOutage();

}  // namespace sysbench
