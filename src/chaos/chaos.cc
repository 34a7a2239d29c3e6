#include "src/chaos/chaos.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace prism::chaos {

namespace {

struct Window {
  sim::TimePoint start;
  sim::TimePoint end;
};

bool Overlaps(const Window& a, const Window& b) {
  return a.start < b.end && b.start < a.end;
}

const char* KindName(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kPartitionStart: return "partition";
    case FaultKind::kPartitionStop: return "heal-partition";
    case FaultKind::kLossBurstStart: return "loss-burst";
    case FaultKind::kLossBurstStop: return "end-loss-burst";
    case FaultKind::kLatencySpikeStart: return "latency-spike";
    case FaultKind::kLatencySpikeStop: return "end-latency-spike";
  }
  return "?";
}

}  // namespace

ChaosMonkey::ChaosMonkey(net::Fabric* fabric, ChaosOptions opts)
    : fabric_(fabric), opts_(std::move(opts)) {
  PRISM_CHECK_LT(opts_.start, opts_.horizon);
  base_loss_ = fabric_->cost().loss_probability;
  BuildSchedule();
}

void ChaosMonkey::BuildSchedule() {
  Rng rng(opts_.seed);
  const uint64_t lo = static_cast<uint64_t>(opts_.start);
  const uint64_t hi = static_cast<uint64_t>(opts_.horizon);

  auto window = [&](sim::Duration min_len, sim::Duration max_len) {
    const sim::TimePoint s =
        static_cast<sim::TimePoint>(rng.NextInRange(lo, hi));
    const sim::Duration len = static_cast<sim::Duration>(
        rng.NextInRange(static_cast<uint64_t>(min_len),
                        static_cast<uint64_t>(max_len)));
    return Window{s, std::min<sim::TimePoint>(s + len, opts_.horizon)};
  };

  // Crash windows: hold every crashable host's windows, rejecting draws
  // that would exceed max_concurrent_crashes anywhere or re-crash a host
  // that is already down (rejected draws are simply skipped — the schedule
  // stays a pure function of the seed).
  std::vector<std::pair<net::HostId, Window>> crash_windows;
  if (!opts_.crashable.empty() && opts_.max_concurrent_crashes > 0) {
    for (int i = 0; i < opts_.crash_count; ++i) {
      const net::HostId host =
          opts_.crashable[rng.NextBelow(opts_.crashable.size())];
      const Window w = window(opts_.min_downtime, opts_.max_downtime);
      if (w.end <= w.start) continue;
      bool admissible = true;
      int overlapping = 0;
      for (const auto& [other_host, other] : crash_windows) {
        if (!Overlaps(w, other)) continue;
        if (other_host == host) admissible = false;
        overlapping++;
      }
      if (!admissible || overlapping >= opts_.max_concurrent_crashes) {
        continue;
      }
      crash_windows.emplace_back(host, w);
      const int wid = window_count_++;
      FaultEvent crash{w.start, FaultKind::kCrash, host};
      crash.window = wid;
      FaultEvent restart{w.end, FaultKind::kRestart, host};
      restart.window = wid;
      schedule_.push_back(crash);
      schedule_.push_back(restart);
    }
  }

  if (opts_.partition_hosts.size() >= 2) {
    for (int i = 0; i < opts_.partition_count; ++i) {
      const net::HostId a =
          opts_.partition_hosts[rng.NextBelow(opts_.partition_hosts.size())];
      const net::HostId b =
          opts_.partition_hosts[rng.NextBelow(opts_.partition_hosts.size())];
      const Window w = window(opts_.min_partition, opts_.max_partition);
      if (a == b || w.end <= w.start) continue;
      const int wid = window_count_++;
      FaultEvent start{w.start, FaultKind::kPartitionStart, a, b};
      start.window = wid;
      FaultEvent stop{w.end, FaultKind::kPartitionStop, a, b};
      stop.window = wid;
      schedule_.push_back(start);
      schedule_.push_back(stop);
    }
  }

  // Loss bursts set an absolute probability, so windows must not overlap
  // (the stop event restores the base rate).
  std::vector<Window> bursts;
  for (int i = 0; i < opts_.loss_burst_count; ++i) {
    const Window w = window(opts_.min_burst, opts_.max_burst);
    if (w.end <= w.start) continue;
    bool clear = true;
    for (const Window& other : bursts) clear = clear && !Overlaps(w, other);
    if (!clear) continue;
    bursts.push_back(w);
    const int wid = window_count_++;
    FaultEvent start{w.start, FaultKind::kLossBurstStart};
    start.loss = opts_.loss_burst_probability;
    start.window = wid;
    schedule_.push_back(start);
    FaultEvent stop{w.end, FaultKind::kLossBurstStop};
    stop.window = wid;
    schedule_.push_back(stop);
  }

  // Latency spikes are additive and may overlap freely.
  for (int i = 0; i < opts_.latency_spike_count; ++i) {
    const Window w = window(opts_.min_spike, opts_.max_spike);
    if (w.end <= w.start) continue;
    const int wid = window_count_++;
    FaultEvent start{w.start, FaultKind::kLatencySpikeStart};
    start.extra_latency = opts_.spike_latency;
    start.window = wid;
    schedule_.push_back(start);
    FaultEvent stop{w.end, FaultKind::kLatencySpikeStop};
    stop.extra_latency = opts_.spike_latency;
    stop.window = wid;
    schedule_.push_back(stop);
  }

  std::stable_sort(
      schedule_.begin(), schedule_.end(),
      [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
}

void ChaosMonkey::Arm() {
  sim::Simulator* sim = fabric_->sim();
  for (const FaultEvent& ev : schedule_) {
    if (IsWindowDisabled(ev.window)) continue;
    sim->ScheduleAt(ev.at, [this, ev]() { Apply(ev); });
  }
}

void ChaosMonkey::SetWindowDisabled(int window, bool disabled) {
  PRISM_CHECK_GE(window, 0);
  PRISM_CHECK_LT(window, window_count_);
  if (window_disabled_.empty()) {
    window_disabled_.assign(static_cast<size_t>(window_count_), false);
  }
  window_disabled_[static_cast<size_t>(window)] = disabled;
}

bool ChaosMonkey::IsWindowDisabled(int window) const {
  if (window < 0 || window_disabled_.empty()) return false;
  return window_disabled_[static_cast<size_t>(window)];
}

void ChaosMonkey::Apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kCrash:
      fabric_->SetHostUp(ev.a, false);
      crashes_injected_++;
      break;
    case FaultKind::kRestart: {
      fabric_->SetHostUp(ev.a, true);
      auto hook = restart_hooks_.find(ev.a);
      if (hook != restart_hooks_.end()) hook->second();
      break;
    }
    case FaultKind::kPartitionStart:
      fabric_->SetLinkBlocked(ev.a, ev.b, true);
      partitions_injected_++;
      break;
    case FaultKind::kPartitionStop:
      fabric_->SetLinkBlocked(ev.a, ev.b, false);
      break;
    case FaultKind::kLossBurstStart:
      fabric_->mutable_cost().loss_probability = ev.loss;
      loss_bursts_injected_++;
      break;
    case FaultKind::kLossBurstStop:
      fabric_->mutable_cost().loss_probability = base_loss_;
      break;
    case FaultKind::kLatencySpikeStart:
      fabric_->mutable_cost().propagation += ev.extra_latency;
      latency_spikes_injected_++;
      break;
    case FaultKind::kLatencySpikeStop:
      fabric_->mutable_cost().propagation -= ev.extra_latency;
      break;
  }
}

std::string ChaosMonkey::Describe() const {
  std::string out = "chaos seed=" + std::to_string(opts_.seed) + " (" +
                    std::to_string(schedule_.size()) + " events)";
  for (const FaultEvent& ev : schedule_) {
    char line[160];
    switch (ev.kind) {
      case FaultKind::kPartitionStart:
      case FaultKind::kPartitionStop:
        std::snprintf(line, sizeof(line), "\n  t=%-10" PRId64 " %s %u->%u",
                      ev.at, KindName(ev.kind), ev.a, ev.b);
        break;
      case FaultKind::kCrash:
      case FaultKind::kRestart:
        std::snprintf(line, sizeof(line), "\n  t=%-10" PRId64 " %s host %u",
                      ev.at, KindName(ev.kind), ev.a);
        break;
      case FaultKind::kLossBurstStart:
        std::snprintf(line, sizeof(line), "\n  t=%-10" PRId64 " %s p=%.2f",
                      ev.at, KindName(ev.kind), ev.loss);
        break;
      default:
        std::snprintf(line, sizeof(line), "\n  t=%-10" PRId64 " %s", ev.at,
                      KindName(ev.kind));
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace prism::chaos
