#include "chronopriv/epoch.h"

namespace pa::chronopriv {

void EpochTracker::record_point(const ir::Function& fn, int block,
                                std::size_t ip) {
  PointMap& points = points_[current_index_];
  auto [it, inserted] = points.try_emplace({fn.name(), block}, ip);
  if (!inserted && ip < it->second) it->second = ip;
}

void EpochTracker::on_run(const os::Process& p, const ir::Function& fn,
                          int block, std::size_t ip, std::uint64_t n) {
  // Fast path: privilege state unchanged since the previous run.
  // ChronoPriv records the permitted set and the real/effective/saved
  // uid/gid triples; supplementary groups are not part of the epoch key
  // (they are not among the credentials the paper's Table III reports).
  const bool same_epoch = current_index_ != SIZE_MAX &&
                          p.privs.permitted() == current_key_.permitted &&
                          p.creds.uid == current_key_.creds.uid &&
                          p.creds.gid == current_key_.creds.gid;
  if (same_epoch) {
    total_ += n;
    epochs_[current_index_].instructions += n;
    timeline_.back().length += n;
    // Record every non-straight-line transfer: function entries, branch
    // targets, and return sites all start a fresh suffix of execution
    // whose syscalls must be in this epoch's filter.
    if (record_points_ &&
        !(&fn == last_fn_ && block == last_block_ && ip == last_ip_ + 1))
      record_point(fn, block, ip);
  } else {
    EpochKey key{p.privs.permitted(),
                 caps::Credentials{p.creds.uid, p.creds.gid, {}}};
    timeline_.push_back(EpochSegment{key, total_, n});
    total_ += n;
    current_index_ = SIZE_MAX;
    for (std::size_t i = 0; i < epochs_.size(); ++i) {
      if (epochs_[i].key == key) {
        epochs_[i].instructions += n;
        current_index_ = i;
        break;
      }
    }
    if (current_index_ == SIZE_MAX) {
      epochs_.push_back(Epoch{key, n, static_cast<int>(epochs_.size())});
      points_.emplace_back();
      current_index_ = epochs_.size() - 1;
    }
    current_key_ = std::move(key);
    // An epoch boundary always starts a fresh suffix.
    if (record_points_) record_point(fn, block, ip);
  }
  if (record_points_) {
    last_fn_ = &fn;
    last_block_ = block;
    last_ip_ = ip + n - 1;
  }
  if (!same_epoch && on_epoch_change_) on_epoch_change_(current_index_);
}

void EpochTracker::reset() {
  epochs_.clear();
  timeline_.clear();
  points_.clear();
  total_ = 0;
  current_index_ = SIZE_MAX;
  last_fn_ = nullptr;
  last_block_ = -1;
  last_ip_ = SIZE_MAX;
}

}  // namespace pa::chronopriv
