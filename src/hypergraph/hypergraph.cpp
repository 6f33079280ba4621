#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <stdexcept>

namespace netpart {

std::int64_t Hypergraph::total_net_weight() const {
  std::int64_t total = 0;
  for (const std::int32_t w : net_weights_) total += w;
  return total;
}

bool Hypergraph::is_unweighted() const {
  for (const std::int32_t w : net_weights_)
    if (w != 1) return false;
  return true;
}

bool Hypergraph::contains(NetId n, ModuleId m) const {
  const auto p = pins(n);
  return std::binary_search(p.begin(), p.end(), m);
}

std::int32_t Hypergraph::max_net_size() const {
  std::int32_t best = 0;
  for (NetId n = 0; n < num_nets(); ++n) best = std::max(best, net_size(n));
  return best;
}

std::int32_t Hypergraph::max_module_degree() const {
  std::int32_t best = 0;
  for (ModuleId m = 0; m < num_modules(); ++m)
    best = std::max(best, module_degree(m));
  return best;
}

bool Hypergraph::is_connected() const {
  const std::int32_t n = num_modules();
  if (n <= 1) return true;
  std::vector<char> mod_seen(static_cast<std::size_t>(n), 0);
  std::vector<char> net_seen(static_cast<std::size_t>(num_nets()), 0);
  std::vector<ModuleId> stack{0};
  mod_seen[0] = 1;
  std::int32_t count = 1;
  while (!stack.empty()) {
    const ModuleId m = stack.back();
    stack.pop_back();
    for (const NetId e : nets_of(m)) {
      if (net_seen[static_cast<std::size_t>(e)]) continue;
      net_seen[static_cast<std::size_t>(e)] = 1;
      for (const ModuleId p : pins(e)) {
        if (!mod_seen[static_cast<std::size_t>(p)]) {
          mod_seen[static_cast<std::size_t>(p)] = 1;
          ++count;
          stack.push_back(p);
        }
      }
    }
  }
  return count == n;
}

Hypergraph induce_subhypergraph(const Hypergraph& h,
                                std::span<const ModuleId> modules,
                                std::int32_t min_net_size) {
  std::vector<std::int32_t> local(static_cast<std::size_t>(h.num_modules()),
                                  -1);
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const ModuleId m = modules[i];
    if (m < 0 || m >= h.num_modules())
      throw std::out_of_range("induce_subhypergraph: bad module id");
    if (local[static_cast<std::size_t>(m)] != -1)
      throw std::invalid_argument("induce_subhypergraph: duplicate module");
    local[static_cast<std::size_t>(m)] = static_cast<std::int32_t>(i);
  }
  HypergraphBuilder builder(static_cast<std::int32_t>(modules.size()));
  builder.set_name(h.name());
  std::vector<ModuleId> pins;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    pins.clear();
    for (const ModuleId m : h.pins(n))
      if (local[static_cast<std::size_t>(m)] >= 0)
        pins.push_back(local[static_cast<std::size_t>(m)]);
    if (static_cast<std::int32_t>(pins.size()) >= min_net_size)
      builder.add_net(pins, h.net_weight(n));
  }
  return builder.build();
}

HypergraphBuilder::HypergraphBuilder(std::int32_t num_modules)
    : num_modules_(num_modules) {
  if (num_modules < 0)
    throw std::invalid_argument("HypergraphBuilder: negative module count");
}

NetId HypergraphBuilder::add_net(std::span<const ModuleId> pins,
                                 std::int32_t weight) {
  if (weight < 1)
    throw std::invalid_argument("HypergraphBuilder::add_net: weight < 1");
  const auto start = all_pins_.size();
  for (const ModuleId m : pins) {
    if (m < 0 || m >= num_modules_)
      throw std::out_of_range("HypergraphBuilder::add_net: bad module id " +
                              std::to_string(m));
    all_pins_.push_back(m);
  }
  const auto first = all_pins_.begin() + static_cast<std::ptrdiff_t>(start);
  std::sort(first, all_pins_.end());
  all_pins_.erase(std::unique(first, all_pins_.end()), all_pins_.end());
  net_sizes_.push_back(static_cast<std::int32_t>(all_pins_.size() - start));
  net_weights_.push_back(weight);
  return static_cast<NetId>(net_sizes_.size() - 1);
}

NetId HypergraphBuilder::add_net(std::initializer_list<ModuleId> pins,
                                 std::int32_t weight) {
  return add_net(std::span<const ModuleId>(pins.begin(), pins.size()),
                 weight);
}

HypergraphBuilder& HypergraphBuilder::set_name(std::string name) {
  name_ = std::move(name);
  return *this;
}

Hypergraph HypergraphBuilder::build() {
  Hypergraph h;
  h.name_ = std::move(name_);
  const std::size_t m = net_sizes_.size();
  h.net_offsets_.assign(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i)
    h.net_offsets_[i + 1] = h.net_offsets_[i] + net_sizes_[i];
  h.net_pins_ = std::move(all_pins_);
  h.net_weights_ = std::move(net_weights_);
  build_transpose(h, num_modules_);

  // Reset builder for reuse.
  name_.clear();
  net_sizes_.clear();
  net_weights_.clear();
  all_pins_.clear();
  return h;
}

Hypergraph HypergraphBuilder::from_canonical_nets(
    std::int32_t num_modules, std::string name,
    std::vector<std::int64_t> net_offsets, std::vector<ModuleId> net_pins,
    std::vector<std::int32_t> net_weights) {
  if (num_modules < 0)
    throw std::invalid_argument(
        "from_canonical_nets: negative module count");
  if (net_offsets.empty() || net_offsets.front() != 0 ||
      net_offsets.back() != static_cast<std::int64_t>(net_pins.size()) ||
      net_weights.size() != net_offsets.size() - 1)
    throw std::invalid_argument("from_canonical_nets: malformed CSR");
  for (std::size_t n = 0; n + 1 < net_offsets.size(); ++n) {
    if (net_weights[n] < 1)
      throw std::invalid_argument("from_canonical_nets: weight < 1");
    const std::int64_t begin = net_offsets[n];
    const std::int64_t end = net_offsets[n + 1];
    if (end < begin)
      throw std::invalid_argument("from_canonical_nets: malformed CSR");
    for (std::int64_t i = begin; i < end; ++i) {
      const ModuleId p = net_pins[static_cast<std::size_t>(i)];
      if (p < 0 || p >= num_modules)
        throw std::out_of_range("from_canonical_nets: bad module id " +
                                std::to_string(p));
      if (i > begin && p <= net_pins[static_cast<std::size_t>(i) - 1])
        throw std::invalid_argument(
            "from_canonical_nets: pins not strictly increasing");
    }
  }
  Hypergraph h;
  h.name_ = std::move(name);
  h.net_offsets_ = std::move(net_offsets);
  h.net_pins_ = std::move(net_pins);
  h.net_weights_ = std::move(net_weights);
  build_transpose(h, num_modules);
  return h;
}

void HypergraphBuilder::build_transpose(Hypergraph& h,
                                        std::int32_t num_modules) {
  // Module -> incident nets, naturally sorted because we scan nets in
  // ascending order.
  const std::size_t m = h.net_offsets_.size() - 1;
  h.module_offsets_.assign(static_cast<std::size_t>(num_modules) + 1, 0);
  for (const ModuleId p : h.net_pins_)
    ++h.module_offsets_[static_cast<std::size_t>(p) + 1];
  for (std::size_t i = 1; i < h.module_offsets_.size(); ++i)
    h.module_offsets_[i] += h.module_offsets_[i - 1];
  h.module_nets_.resize(h.net_pins_.size());
  std::vector<std::int64_t> cursor(h.module_offsets_.begin(),
                                   h.module_offsets_.end() - 1);
  for (std::size_t n = 0; n < m; ++n) {
    for (std::int64_t i = h.net_offsets_[n]; i < h.net_offsets_[n + 1]; ++i) {
      const auto mod = static_cast<std::size_t>(h.net_pins_[static_cast<std::size_t>(i)]);
      h.module_nets_[static_cast<std::size_t>(cursor[mod]++)] =
          static_cast<NetId>(n);
    }
  }
}

}  // namespace netpart
