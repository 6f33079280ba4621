#include "repart/editable_netlist.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace netpart::repart {

namespace {

/// The identity remap over `count` ids.
std::vector<std::int32_t> identity_remap(std::int32_t count) {
  std::vector<std::int32_t> remap(static_cast<std::size_t>(count));
  std::iota(remap.begin(), remap.end(), 0);
  return remap;
}

}  // namespace

EditableNetlist::EditableNetlist(const Hypergraph& h)
    : name_(h.name()),
      num_modules_(h.num_modules()),
      module_remap_(identity_remap(h.num_modules())) {
  const std::int32_t m = h.num_nets();
  pins_.reserve(static_cast<std::size_t>(m));
  weights_.reserve(static_cast<std::size_t>(m));
  for (NetId n = 0; n < m; ++n) {
    const auto p = h.pins(n);
    pins_.emplace_back(p.begin(), p.end());
    weights_.push_back(h.net_weight(n));
  }
}

void EditableNetlist::check_net(NetId n) const {
  if (n < 0 || n >= num_nets())
    throw std::out_of_range("EditableNetlist: net id " + std::to_string(n) +
                            " out of range");
}

void EditableNetlist::check_module(ModuleId m) const {
  if (m < 0 || m >= num_modules_)
    throw std::out_of_range("EditableNetlist: module id " + std::to_string(m) +
                            " out of range");
}

std::span<const ModuleId> EditableNetlist::pins(NetId n) const {
  check_net(n);
  return pins_[static_cast<std::size_t>(n)];
}

std::int32_t EditableNetlist::net_weight(NetId n) const {
  check_net(n);
  return weights_[static_cast<std::size_t>(n)];
}

NetId EditableNetlist::add_net(std::span<const ModuleId> new_pins,
                               std::int32_t weight) {
  if (weight < 1) throw std::invalid_argument("EditableNetlist: weight < 1");
  for (const ModuleId k : new_pins) check_module(k);
  std::vector<ModuleId> sorted(new_pins.begin(), new_pins.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  pins_.push_back(std::move(sorted));
  weights_.push_back(weight);
  edited_ = true;
  return num_nets() - 1;
}

void EditableNetlist::remove_net(NetId n) {
  check_net(n);
  pins_.erase(pins_.begin() + n);
  weights_.erase(weights_.begin() + n);
  edited_ = true;
}

ModuleId EditableNetlist::add_module() {
  edited_ = true;
  return num_modules_++;
}

void EditableNetlist::remove_module(ModuleId m) {
  check_module(m);
  for (auto& p : pins_) {
    const auto it = std::lower_bound(p.begin(), p.end(), m);
    if (it != p.end() && *it == m) p.erase(it);
    // Shift surviving pins past the removed id (order is preserved).
    for (ModuleId& k : p)
      if (k > m) --k;
  }
  for (std::int32_t& id : module_remap_) {
    if (id == m)
      id = -1;
    else if (id > m)
      --id;
  }
  --num_modules_;
  edited_ = true;
}

void EditableNetlist::move_pin(NetId n, ModuleId from, ModuleId to) {
  check_net(n);
  check_module(from);
  check_module(to);
  auto& p = pins_[static_cast<std::size_t>(n)];
  const auto from_it = std::lower_bound(p.begin(), p.end(), from);
  if (from_it == p.end() || *from_it != from)
    throw std::invalid_argument("EditableNetlist: module " +
                                std::to_string(from) + " is not a pin of net " +
                                std::to_string(n));
  if (from == to) return;
  p.erase(from_it);
  const auto to_it = std::lower_bound(p.begin(), p.end(), to);
  if (to_it == p.end() || *to_it != to) p.insert(to_it, to);
  edited_ = true;
}

Hypergraph EditableNetlist::materialize() const {
  HypergraphBuilder builder(num_modules_);
  builder.set_name(name_);
  for (std::size_t n = 0; n < pins_.size(); ++n)
    builder.add_net(pins_[n], weights_[n]);
  return builder.build();
}

ChangeSet EditableNetlist::drain_changes() {
  // Hand out the journal and reset the baseline to the current state.
  ChangeSet out{std::exchange(module_remap_, identity_remap(num_modules_)),
                edited_};
  edited_ = false;
  return out;
}

}  // namespace netpart::repart
