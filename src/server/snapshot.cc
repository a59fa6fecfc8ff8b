#include "server/snapshot.h"

#include <cassert>

#include "obs/metrics.h"

namespace datalog {
namespace server {

namespace {

struct SnapshotMetrics {
  obs::GaugeHandle live{"server.snapshot.live"};
  obs::GaugeHandle pinned{"server.snapshot.pinned"};
  obs::CounterHandle published{"server.snapshot.published"};
  obs::CounterHandle reclaimed{"server.snapshot.reclaimed"};
};

SnapshotMetrics& Metrics() {
  static SnapshotMetrics metrics;
  return metrics;
}

}  // namespace

std::string Snapshot::PredBytes(PredId pred) const {
  const size_t i = static_cast<size_t>(pred);
  if (i >= chunks_.size()) return AssembleSnapshot({});
  return AssembleSnapshot(std::span(chunks_).subspan(i, 1));
}

SnapshotPin& SnapshotPin::operator=(SnapshotPin&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    snapshot_ = other.snapshot_;
    other.registry_ = nullptr;
    other.snapshot_ = nullptr;
  }
  return *this;
}

void SnapshotPin::Release() {
  if (registry_ != nullptr && snapshot_ != nullptr) {
    registry_->Unpin(snapshot_);
  }
  registry_ = nullptr;
  snapshot_ = nullptr;
}

SnapshotRegistry::~SnapshotRegistry() {
  // Pins must not outlive the registry; by then every retired snapshot
  // has been reclaimed and only the current entry remains.
  std::lock_guard<std::mutex> lock(mu_);
  assert(counters_.pins == counters_.unpins);
}

void SnapshotRegistry::Publish(std::unique_ptr<Snapshot> snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.empty()) {
    Entry* prev = entries_.back().get();
    assert(snapshot->epoch() > prev->snapshot->epoch());
    prev->retired = true;
    ++counters_.retired;
    if (prev->pins == 0) ReclaimLocked(entries_.size() - 1);
  }
  auto entry = std::make_unique<Entry>();
  entry->snapshot = std::move(snapshot);
  entries_.push_back(std::move(entry));
  ++counters_.published;
  Metrics().published.Add(1);
  Metrics().live.Set(static_cast<int64_t>(entries_.size()));
}

SnapshotPin SnapshotRegistry::Pin() {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) return SnapshotPin();
  Entry* current = entries_.back().get();
  ++current->pins;
  ++counters_.pins;
  Metrics().pinned.Set(counters_.pins - counters_.unpins);
  return SnapshotPin(this, current->snapshot.get());
}

void SnapshotRegistry::Unpin(const Snapshot* snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry* e = entries_[i].get();
    if (e->snapshot.get() != snapshot) continue;
    assert(e->pins > 0);
    --e->pins;
    ++counters_.unpins;
    Metrics().pinned.Set(counters_.pins - counters_.unpins);
    if (e->retired && e->pins == 0) ReclaimLocked(i);
    return;
  }
  assert(false && "unpin of unknown snapshot");
}

void SnapshotRegistry::ReclaimLocked(size_t i) {
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  ++counters_.reclaimed;
  Metrics().reclaimed.Add(1);
  Metrics().live.Set(static_cast<int64_t>(entries_.size()));
}

int64_t SnapshotRegistry::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.empty() ? -1 : entries_.back()->snapshot->epoch();
}

int64_t SnapshotRegistry::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

int64_t SnapshotRegistry::pinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.pins - counters_.unpins;
}

SnapshotRegistry::Counters SnapshotRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace server
}  // namespace datalog
