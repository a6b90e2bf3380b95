#ifndef ELASTICORE_OLTP_CC_STRESS_H_
#define ELASTICORE_OLTP_CC_STRESS_H_

#include <cstdint>
#include <vector>

#include "oltp/cc/history.h"
#include "oltp/cc/protocol.h"
#include "oltp/cc/workload.h"

namespace elastic::oltp::cc {

/// Configuration of a multi-threaded concurrency-control stress run: real
/// std::thread workers hammering one protocol instance, each retrying its
/// transactions until commit. An aborted transaction backs off (yield,
/// then sleeps growing to 1 ms) and retries however long an unlucky OS
/// schedule keeps a conflicting lock holder off the CPU; it is dropped
/// (counted in gave_up, data left untouched) only once no thread of the
/// run has committed anything for 5 s — the run has stopped making
/// progress, which a slow schedule alone cannot cause. This is the harness
/// behind the serializability and invariant tests — the machine simulation
/// exercises the protocols deterministically, this exercises them under
/// genuine interleavings (and under ThreadSanitizer in CI).
struct StressConfig {
  ProtocolKind protocol = ProtocolKind::kTwoPhaseLock;
  /// kYcsb or kSmallBank (kNewOrderPayment has no standalone generator).
  WorkloadKind workload = WorkloadKind::kYcsb;
  YcsbConfig ycsb;
  SmallBankConfig smallbank;
  int num_threads = 8;
  int txns_per_thread = 1000;
  uint64_t seed = 42;
  bool record_history = true;
};

struct StressResult {
  int64_t committed = 0;
  /// Abort events (a transaction retried N times contributes N).
  int64_t aborted = 0;
  /// Transactions dropped by the progress watchdog.
  int64_t gave_up = 0;
  int64_t initial_sum = 0;
  int64_t final_sum = 0;
  /// Merged commit footprints of all threads (when record_history).
  std::vector<CommittedTxn> history;
};

StressResult RunCcStress(const StressConfig& config);

}  // namespace elastic::oltp::cc

#endif  // ELASTICORE_OLTP_CC_STRESS_H_
