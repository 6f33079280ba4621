#include "repart/edit_script.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <numeric>
#include <sstream>

#include "io/netlist_io.hpp"

namespace netpart::repart {

namespace {

/// Parse a non-negative int32 token; ParseError on junk or overflow.
std::int32_t parse_id(const std::string& token, std::int64_t line,
                      const char* what) {
  if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos)
    throw io::ParseError(std::string("expected ") + what + ", got '" + token +
                             "'",
                         line);
  errno = 0;
  const long long value = std::strtoll(token.c_str(), nullptr, 10);
  if (errno != 0 || value > INT32_MAX)
    throw io::ParseError(std::string(what) + " '" + token + "' out of range",
                         line);
  return static_cast<std::int32_t>(value);
}

/// Handle of the default name "n<k>" (canonical decimal, k < initial_nets),
/// or -1 for any other name.
std::int32_t default_handle(const std::string& name,
                            std::int32_t initial_nets) {
  if (name.size() < 2 || name.size() > 11 || name[0] != 'n' ||
      name.find_first_not_of("0123456789", 1) != std::string::npos ||
      (name[1] == '0' && name.size() > 2))  // "n0", never "n07"
    return -1;
  std::int64_t k = 0;
  std::from_chars(name.data() + 1, name.data() + name.size(), k);
  return k < initial_nets ? static_cast<std::int32_t>(k) : -1;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

}  // namespace

EditScript read_edit_script(std::istream& in) {
  EditScript script;
  EditBatch batch;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& op = tokens[0];

    if (op == "commit") {
      if (tokens.size() != 1)
        throw io::ParseError("commit takes no arguments", line_no);
      script.batches.push_back(std::move(batch));
      batch.clear();
    } else if (op == "add-net") {
      if (tokens.size() < 3)
        throw io::ParseError("add-net needs a net name and at least one pin",
                             line_no);
      EditOp edit;
      edit.kind = EditOpKind::kAddNet;
      edit.net_name = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i)
        edit.pins.push_back(parse_id(tokens[i], line_no, "module id"));
      batch.push_back(std::move(edit));
    } else if (op == "remove-net") {
      if (tokens.size() != 2)
        throw io::ParseError("remove-net needs exactly one net name", line_no);
      EditOp edit;
      edit.kind = EditOpKind::kRemoveNet;
      edit.net_name = tokens[1];
      batch.push_back(std::move(edit));
    } else if (op == "add-module") {
      if (tokens.size() != 1)
        throw io::ParseError("add-module takes no arguments", line_no);
      EditOp edit;
      edit.kind = EditOpKind::kAddModule;
      batch.push_back(std::move(edit));
    } else if (op == "remove-module") {
      if (tokens.size() != 2)
        throw io::ParseError("remove-module needs exactly one module id",
                             line_no);
      EditOp edit;
      edit.kind = EditOpKind::kRemoveModule;
      edit.module_a = parse_id(tokens[1], line_no, "module id");
      batch.push_back(std::move(edit));
    } else if (op == "move-pin") {
      if (tokens.size() != 4)
        throw io::ParseError("move-pin needs <net> <from> <to>", line_no);
      EditOp edit;
      edit.kind = EditOpKind::kMovePin;
      edit.net_name = tokens[1];
      edit.module_a = parse_id(tokens[2], line_no, "module id");
      edit.module_b = parse_id(tokens[3], line_no, "module id");
      batch.push_back(std::move(edit));
    } else {
      throw io::ParseError("unknown edit op '" + op + "'", line_no);
    }
  }
  if (!batch.empty()) script.batches.push_back(std::move(batch));
  return script;
}

EditScript read_edit_script_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open edit script '" + path + "'");
  return read_edit_script(in);
}

EditScriptApplier::EditScriptApplier(EditableNetlist& netlist)
    : netlist_(netlist),
      initial_nets_(netlist.num_nets()),
      next_handle_(initial_nets_) {}

NetId EditScriptApplier::live_id(const std::string& name) const {
  const auto added = added_.find(name);
  const std::int32_t handle = added != added_.end()
                                  ? added->second
                                  : default_handle(name, initial_nets_);
  if (handle < 0) return -1;
  const auto it = std::lower_bound(handle_of_.begin(), handle_of_.end(), handle);
  if (it == handle_of_.end() || *it != handle) return -1;
  return static_cast<NetId>(it - handle_of_.begin());
}

NetId EditScriptApplier::resolve(const std::string& name) const {
  const NetId id = live_id(name);
  if (id < 0) throw std::invalid_argument("unknown net name '" + name + "'");
  return id;
}

void EditScriptApplier::apply(const EditBatch& batch) {
  if (!table_built_) {
    handle_of_.resize(static_cast<std::size_t>(initial_nets_));
    std::iota(handle_of_.begin(), handle_of_.end(), 0);
    table_built_ = true;
  }
  for (const EditOp& op : batch) {
    switch (op.kind) {
      case EditOpKind::kAddNet: {
        if (live_id(op.net_name) >= 0)
          throw std::invalid_argument("duplicate net name '" + op.net_name +
                                      "'");
        (void)netlist_.add_net(op.pins);  // appended: id == handle_of_.size()
        added_.emplace(op.net_name, next_handle_);
        handle_of_.push_back(next_handle_++);
        break;
      }
      case EditOpKind::kRemoveNet: {
        const NetId id = resolve(op.net_name);
        netlist_.remove_net(id);
        handle_of_.erase(handle_of_.begin() + id);
        added_.erase(op.net_name);  // no-op for a default name
        break;
      }
      case EditOpKind::kAddModule:
        netlist_.add_module();
        break;
      case EditOpKind::kRemoveModule:
        netlist_.remove_module(op.module_a);
        break;
      case EditOpKind::kMovePin:
        netlist_.move_pin(resolve(op.net_name), op.module_a, op.module_b);
        break;
    }
  }
}

}  // namespace netpart::repart
