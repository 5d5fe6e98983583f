#include "runtime/selector.h"

#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/string_util.h"

namespace obiswap::runtime {

namespace {

/// The process-wide name table. Names never leave it, so a selector's id
/// stays valid for the life of the process, and the deque keeps every
/// name (and the views the index holds) at a stable address.
struct SelectorTable {
  std::mutex mu;
  std::deque<std::string> names;
  std::unordered_map<std::string_view, uint32_t> ids;
};

SelectorTable& Table() {
  static SelectorTable* table = new SelectorTable();
  return *table;
}

}  // namespace

Selector::Selector(std::string_view name) {
  // By-name calls intern on every call: serve repeats from a per-thread
  // copy of the index, so only a thread's first use of a name locks.
  thread_local NameMap<uint32_t> seen;
  if (auto it = seen.find(name); it != seen.end()) {
    id_ = it->second;
    return;
  }
  id_ = Intern(name);
  seen.emplace(std::string(name), id_);
}

uint32_t Selector::Intern(std::string_view name) {
  SelectorTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;
  const auto id = static_cast<uint32_t>(table.names.size());
  table.names.emplace_back(name);
  table.ids.emplace(table.names.back(), id);
  return id;
}

std::string_view Selector::name() const {
  if (!valid()) return std::string_view();
  SelectorTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mu);
  return table.names[id_];
}

}  // namespace obiswap::runtime
