#include "server/runtime/admission.hpp"

#include <algorithm>

namespace netpart::server::runtime {

namespace {

/// Retry-after fallback when a class has no service-time samples yet;
/// rough service-time medians, safe to overestimate.
constexpr double kDefaultServiceMs[kNumClasses] = {1.0, 25.0, 150.0};

constexpr std::size_t index(RequestClass c) {
  return static_cast<std::size_t>(c);
}

}  // namespace

const char* class_name(RequestClass c) {
  switch (c) {
    case RequestClass::kHit:
      return "hit";
    case RequestClass::kWarm:
      return "warm";
    case RequestClass::kCold:
      return "cold";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionLimits limits)
    : limits_(limits) {}

std::size_t AdmissionController::cap(RequestClass c) const {
  switch (c) {
    case RequestClass::kHit:
      return limits_.hit_pending;
    case RequestClass::kWarm:
      return limits_.warm_slots;
    case RequestClass::kCold:
      return limits_.cold_slots;
  }
  return 0;
}

bool AdmissionController::try_admit(RequestClass c) {
  const std::size_t i = index(c);
  const std::int64_t prev =
      occupancy_[i].fetch_add(1, std::memory_order_relaxed);
  if (prev >= static_cast<std::int64_t>(cap(c))) {
    occupancy_[i].fetch_sub(1, std::memory_order_relaxed);
    shed_[i].fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  admitted_[i].fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AdmissionController::on_start(RequestClass c) {
  if (c == RequestClass::kHit)
    occupancy_[index(c)].fetch_sub(1, std::memory_order_relaxed);
}

void AdmissionController::on_finish(RequestClass c, double exec_ms) {
  const std::size_t i = index(c);
  if (c != RequestClass::kHit)
    occupancy_[i].fetch_sub(1, std::memory_order_relaxed);
  // Sub-millisecond (and deadline-rejected) requests carry no usable
  // service-time signal; retry_after_ms falls back to the class default.
  if (exec_ms <= 0.0) return;
  const std::lock_guard<std::mutex> lock(ema_mutex_);
  ema_ms_[i] = ema_ms_[i] == 0.0 ? exec_ms : 0.9 * ema_ms_[i] + 0.1 * exec_ms;
}

std::int64_t AdmissionController::retry_after_ms(RequestClass c) const {
  const std::size_t i = index(c);
  double ema = 0.0;
  {
    const std::lock_guard<std::mutex> lock(ema_mutex_);
    ema = ema_ms_[i];
  }
  const double service = std::max(ema, kDefaultServiceMs[i]);
  const double backlog = static_cast<double>(
      std::max<std::int64_t>(occupancy_[i].load(std::memory_order_relaxed), 1));
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(backlog * service),
                                  10, 10000);
}

ClassSnapshot AdmissionController::snapshot(RequestClass c) const {
  const std::size_t i = index(c);
  ClassSnapshot snap;
  snap.admitted = admitted_[i].load(std::memory_order_relaxed);
  snap.shed = shed_[i].load(std::memory_order_relaxed);
  snap.occupancy = occupancy_[i].load(std::memory_order_relaxed);
  snap.cap = static_cast<std::int64_t>(cap(c));
  {
    const std::lock_guard<std::mutex> lock(ema_mutex_);
    snap.ema_ms = ema_ms_[i];
  }
  return snap;
}

std::int64_t AdmissionController::shed_count(RequestClass c) const {
  return shed_[index(c)].load(std::memory_order_relaxed);
}

}  // namespace netpart::server::runtime
