#include "oltp/cc/workload.h"

#include <cmath>

namespace elastic::oltp::cc {

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kNewOrderPayment:
      return "neworder_payment";
    case WorkloadKind::kYcsb:
      return "ycsb";
    case WorkloadKind::kSmallBank:
      return "smallbank";
  }
  return "unknown";
}

bool WorkloadKindFromName(const std::string& name, WorkloadKind* kind) {
  if (name == "neworder_payment") {
    *kind = WorkloadKind::kNewOrderPayment;
    return true;
  }
  if (name == "ycsb") {
    *kind = WorkloadKind::kYcsb;
    return true;
  }
  if (name == "smallbank") {
    *kind = WorkloadKind::kSmallBank;
    return true;
  }
  return false;
}

const char* SmallBankProfileName(SmallBankProfile profile) {
  switch (profile) {
    case SmallBankProfile::kBalance:
      return "balance";
    case SmallBankProfile::kDepositChecking:
      return "deposit_checking";
    case SmallBankProfile::kTransactSavings:
      return "transact_savings";
    case SmallBankProfile::kAmalgamate:
      return "amalgamate";
    case SmallBankProfile::kWriteCheck:
      return "write_check";
    case SmallBankProfile::kSendPayment:
      return "send_payment";
  }
  return "unknown";
}

ZipfianGenerator::ZipfianGenerator(int64_t n, double theta)
    : n_(n > 0 ? n : 1), theta_(theta) {
  // The Gray et al. construction needs theta in [0, 1); clamp the knob so a
  // caller asking for "very skewed" gets very skewed instead of NaNs.
  if (theta_ < 0) theta_ = 0;
  if (theta_ > 0.9999) theta_ = 0.9999;
  if (theta_ == 0 || n_ < 2) return;
  for (int64_t i = 1; i <= n_; ++i) {
    zeta_n_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  zeta_two_ = 1.0 + 1.0 / std::pow(2.0, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta_two_ / zeta_n_);
}

int64_t ZipfianGenerator::Next(simcore::Rng& rng) {
  if (n_ < 2) return 0;
  if (theta_ == 0) {
    return static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n_)));
  }
  const double u = rng.NextDouble();
  const double uz = u * zeta_n_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  int64_t k = static_cast<int64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (k < 0) k = 0;
  if (k >= n_) k = n_ - 1;
  return k;
}

YcsbGenerator::YcsbGenerator(const YcsbConfig& config, uint64_t seed)
    : config_(config),
      zipf_(config.num_records, config.theta),
      rng_(seed) {}

CcTxn YcsbGenerator::Next() {
  CcTxn txn;
  txn.kind = WorkloadKind::kYcsb;
  txn.ops.reserve(static_cast<size_t>(config_.ops_per_txn));
  for (int i = 0; i < config_.ops_per_txn; ++i) {
    uint64_t key = static_cast<uint64_t>(zipf_.Next(rng_));
    // Keys within one transaction must be distinct (a duplicate would just
    // hit the transaction's own cache); probe linearly past collisions so
    // the resolution is deterministic even at extreme skew.
    for (bool dup = true; dup;) {
      dup = false;
      for (const CcOp& prior : txn.ops) {
        if (prior.key == key) {
          key = (key + 1) % static_cast<uint64_t>(config_.num_records);
          dup = true;
          break;
        }
      }
    }
    CcOp op;
    op.key = key;
    op.write = rng_.NextDouble() >= config_.read_fraction;
    txn.ops.push_back(op);
  }
  return txn;
}

SmallBankGenerator::SmallBankGenerator(const SmallBankConfig& config,
                                       uint64_t seed)
    : config_(config),
      zipf_(config.num_accounts, config.theta),
      rng_(seed) {}

CcTxn SmallBankGenerator::Next() {
  CcTxn txn;
  txn.kind = WorkloadKind::kSmallBank;
  if (config_.transfers_only) {
    static constexpr SmallBankProfile kConserving[] = {
        SmallBankProfile::kBalance,
        SmallBankProfile::kAmalgamate,
        SmallBankProfile::kSendPayment,
    };
    txn.profile = kConserving[rng_.NextBounded(3)];
  } else {
    txn.profile = static_cast<SmallBankProfile>(rng_.NextBounded(6));
  }
  txn.account_a = zipf_.Next(rng_);
  if (txn.profile == SmallBankProfile::kAmalgamate ||
      txn.profile == SmallBankProfile::kSendPayment) {
    txn.account_b = zipf_.Next(rng_);
    if (txn.account_b == txn.account_a) {
      txn.account_b = (txn.account_a + 1) % config_.num_accounts;
    }
  }
  txn.amount = rng_.NextInRange(1, 100);
  return txn;
}

bool ExecuteCcTxn(Protocol& protocol, TxnCtx& ctx, const CcTxn& txn,
                  std::vector<uint64_t>* touched_keys) {
  const auto touch = [touched_keys](uint64_t key) {
    if (touched_keys != nullptr) touched_keys->push_back(key);
  };
  const auto get = [&](uint64_t key, int64_t* value) {
    touch(key);
    return protocol.Get(ctx, key, value);
  };

  if (txn.kind != WorkloadKind::kSmallBank) {
    // Op-list transactions: YCSB, and the classic NewOrder/Payment requests
    // the engine translates into op lists. The keys are known up front, so
    // every record's cache line is requested before the first lock word is
    // read: the misses into the record array overlap instead of
    // serializing behind one another.
    for (const CcOp& op : txn.ops) {
      __builtin_prefetch(&protocol.table().record(op.key), /*rw=*/1);
    }
    for (const CcOp& op : txn.ops) {
      int64_t value = 0;
      if (!get(op.key, &value)) return false;
      if (op.write && !protocol.Put(ctx, op.key, value + 1)) return false;
    }
    return true;
  }

  const uint64_t sav_a = SmallBankSavingsKey(txn.account_a);
  const uint64_t chk_a = SmallBankCheckingKey(txn.account_a);
  const uint64_t chk_b = SmallBankCheckingKey(txn.account_b);
  int64_t sav = 0;
  int64_t chk = 0;
  int64_t other = 0;
  // The two-account profiles assume distinct accounts (the generator
  // guarantees it); a self-transfer would double-apply the update through
  // the write buffer, so degrade it to a pure read.
  const bool self_pair = txn.account_a == txn.account_b;
  switch (txn.profile) {
    case SmallBankProfile::kBalance:
      return get(sav_a, &sav) && get(chk_a, &chk);
    case SmallBankProfile::kDepositChecking:
      if (!get(chk_a, &chk)) return false;
      return protocol.Put(ctx, chk_a, chk + txn.amount);
    case SmallBankProfile::kTransactSavings:
      if (!get(sav_a, &sav)) return false;
      return protocol.Put(ctx, sav_a, sav + txn.amount);
    case SmallBankProfile::kAmalgamate:
      if (!get(sav_a, &sav) || !get(chk_a, &chk)) return false;
      if (self_pair) return true;
      if (!get(chk_b, &other)) return false;
      if (!protocol.Put(ctx, sav_a, 0)) return false;
      if (!protocol.Put(ctx, chk_a, 0)) return false;
      return protocol.Put(ctx, chk_b, other + sav + chk);
    case SmallBankProfile::kWriteCheck: {
      if (!get(sav_a, &sav) || !get(chk_a, &chk)) return false;
      // Overdraft penalty of 1 when the check exceeds the total balance.
      const int64_t penalty = (sav + chk < txn.amount) ? 1 : 0;
      return protocol.Put(ctx, chk_a, chk - txn.amount - penalty);
    }
    case SmallBankProfile::kSendPayment:
      if (!get(chk_a, &chk)) return false;
      if (self_pair) return true;
      if (!get(chk_b, &other)) return false;
      if (!protocol.Put(ctx, chk_a, chk - txn.amount)) return false;
      return protocol.Put(ctx, chk_b, other + txn.amount);
  }
  return false;
}

}  // namespace elastic::oltp::cc
