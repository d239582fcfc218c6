#include "coordinator/coordinator.h"

#include <algorithm>
#include <deque>
#include <iterator>

namespace typhoon::coordinator {

const char* WatchEventName(WatchEvent e) {
  switch (e) {
    case WatchEvent::kCreated: return "CREATED";
    case WatchEvent::kDataChanged: return "DATA_CHANGED";
    case WatchEvent::kDeleted: return "DELETED";
    case WatchEvent::kChildrenChanged: return "CHILDREN_CHANGED";
  }
  return "?";
}

std::string Coordinator::ParentOf(const std::string& path) {
  const auto pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

std::string Coordinator::BaseName(const std::string& path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

bool Coordinator::ValidPath(const std::string& path) {
  if (path.empty() || path[0] != '/') return false;
  if (path.size() > 1 && path.back() == '/') return false;
  return path.find("//") == std::string::npos;
}

void Coordinator::collect_watchers(
    const std::string& path, WatchEvent event, const common::Bytes& data,
    std::vector<std::pair<WatchCallback, PendingEvent>>& out) const {
  for (const auto& [id, w] : watches_) {
    bool hit = false;
    if (w.path == path) {
      hit = true;
    } else if (w.prefix && path.starts_with(w.path) &&
               (w.path == "/" || path.size() == w.path.size() ||
                path[w.path.size()] == '/')) {
      hit = true;
    } else if (event == WatchEvent::kCreated || event == WatchEvent::kDeleted) {
      // Children-changed notification on the parent.
      if (w.path == ParentOf(path)) {
        out.push_back({w.cb, {w.path, WatchEvent::kChildrenChanged, {}}});
      }
      continue;
    }
    if (hit) out.push_back({w.cb, {path, event, data}});
  }
}

void Coordinator::dispatch(
    std::vector<std::pair<WatchCallback, PendingEvent>>&& fired) {
  if (fired.empty()) return;
  // Per-thread FIFO drain. A callback that mutates the tree re-enters
  // dispatch on the same thread; without the queue its events would run
  // nested — i.e. BEFORE the remaining callbacks of the mutation that
  // triggered it, interleaving observers out of mutation order. Instead the
  // nested call only appends, and the outermost frame drains everything in
  // the order the mutations actually happened.
  thread_local std::deque<std::pair<WatchCallback, PendingEvent>>* active =
      nullptr;
  if (active != nullptr) {
    for (auto& f : fired) active->push_back(std::move(f));
    return;
  }
  std::deque<std::pair<WatchCallback, PendingEvent>> queue(
      std::make_move_iterator(fired.begin()),
      std::make_move_iterator(fired.end()));
  active = &queue;
  while (!queue.empty()) {
    auto [cb, ev] = std::move(queue.front());
    queue.pop_front();
    cb(ev.path, ev.event, ev.data);
  }
  active = nullptr;
}

void Coordinator::ensure_parents_locked(
    const std::string& path,
    std::vector<std::pair<WatchCallback, PendingEvent>>& fired) {
  const std::string parent = ParentOf(path);
  if (parent != "/" && !nodes_.contains(parent)) {
    ensure_parents_locked(parent, fired);
    nodes_[parent] = Node{};
    kids_[ParentOf(parent)].insert(BaseName(parent));
    collect_watchers(parent, WatchEvent::kCreated, {}, fired);
  }
}

Coordinator::SessionId Coordinator::create_session() {
  std::lock_guard lk(mu_);
  return next_session_++;
}

void Coordinator::close_session(SessionId session) {
  std::vector<std::string> to_remove;
  {
    std::lock_guard lk(mu_);
    auto it = session_nodes_.find(session);
    if (it == session_nodes_.end()) return;
    to_remove.assign(it->second.begin(), it->second.end());
    session_nodes_.erase(it);
  }
  // Longest paths first so children go before parents.
  std::sort(to_remove.begin(), to_remove.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  for (const std::string& p : to_remove) {
    remove(p, /*recursive=*/true);
  }
}

common::Status Coordinator::create(const std::string& path,
                                   common::Bytes data, bool ephemeral,
                                   SessionId owner) {
  if (!ValidPath(path) || path == "/") {
    return common::InvalidArgument("bad path: " + path);
  }
  std::vector<std::pair<WatchCallback, PendingEvent>> fired;
  {
    std::lock_guard lk(mu_);
    if (nodes_.contains(path)) {
      return common::AlreadyExists(path);
    }
    ensure_parents_locked(path, fired);
    Node n;
    n.data = data;
    n.stat.ephemeral = ephemeral;
    n.stat.owner_session = owner;
    nodes_[path] = std::move(n);
    kids_[ParentOf(path)].insert(BaseName(path));
    if (ephemeral) session_nodes_[owner].insert(path);
    collect_watchers(path, WatchEvent::kCreated, data, fired);
  }
  dispatch(std::move(fired));
  return common::Status::Ok();
}

common::Status Coordinator::set(const std::string& path, common::Bytes data) {
  std::vector<std::pair<WatchCallback, PendingEvent>> fired;
  {
    std::lock_guard lk(mu_);
    auto it = nodes_.find(path);
    if (it == nodes_.end()) return common::NotFound(path);
    it->second.data = data;
    ++it->second.stat.version;
    collect_watchers(path, WatchEvent::kDataChanged, data, fired);
  }
  dispatch(std::move(fired));
  return common::Status::Ok();
}

common::Status Coordinator::put(const std::string& path, common::Bytes data) {
  if (!ValidPath(path) || path == "/") {
    return common::InvalidArgument("bad path: " + path);
  }
  // Single atomic create-or-set. Must not delegate to create()/set() while
  // holding mu_: they dispatch watch callbacks, and a callback that touches
  // another subsystem's lock (e.g. the control plane's) would order
  // mu_ -> other, while that subsystem's own coordinator calls order
  // other -> mu_ — a lock-order inversion. Watchers fire after mu_ drops,
  // like every other mutator here.
  std::vector<std::pair<WatchCallback, PendingEvent>> fired;
  {
    std::lock_guard lk(mu_);
    auto it = nodes_.find(path);
    if (it != nodes_.end()) {
      it->second.data = data;
      ++it->second.stat.version;
      collect_watchers(path, WatchEvent::kDataChanged, data, fired);
    } else {
      ensure_parents_locked(path, fired);
      Node n;
      n.data = data;
      nodes_[path] = std::move(n);
      kids_[ParentOf(path)].insert(BaseName(path));
      collect_watchers(path, WatchEvent::kCreated, data, fired);
    }
  }
  dispatch(std::move(fired));
  return common::Status::Ok();
}

common::Result<common::Bytes> Coordinator::get(const std::string& path) const {
  std::lock_guard lk(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return common::NotFound(path);
  return it->second.data;
}

std::optional<NodeStat> Coordinator::stat(const std::string& path) const {
  std::lock_guard lk(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.stat;
}

common::Status Coordinator::remove_locked(
    const std::string& path, bool recursive,
    std::vector<std::pair<WatchCallback, PendingEvent>>& fired) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return common::NotFound(path);
  if (auto kit = kids_.find(path); kit != kids_.end() && !kit->second.empty()) {
    if (!recursive) {
      return common::FailedPrecondition(path + " has children");
    }
    const std::set<std::string> names = kit->second;  // copy: we mutate
    for (const std::string& name : names) {
      (void)remove_locked(path + "/" + name, true, fired);
    }
  }
  const common::Bytes last = it->second.data;
  if (it->second.stat.ephemeral) {
    if (auto sit = session_nodes_.find(it->second.stat.owner_session);
        sit != session_nodes_.end()) {
      sit->second.erase(path);
    }
  }
  nodes_.erase(it);
  kids_.erase(path);
  kids_[ParentOf(path)].erase(BaseName(path));
  collect_watchers(path, WatchEvent::kDeleted, last, fired);
  return common::Status::Ok();
}

common::Status Coordinator::remove(const std::string& path, bool recursive) {
  std::vector<std::pair<WatchCallback, PendingEvent>> fired;
  common::Status st;
  {
    std::lock_guard lk(mu_);
    st = remove_locked(path, recursive, fired);
  }
  dispatch(std::move(fired));
  return st;
}

bool Coordinator::exists(const std::string& path) const {
  std::lock_guard lk(mu_);
  return nodes_.contains(path);
}

std::vector<std::string> Coordinator::children(const std::string& path) const {
  std::lock_guard lk(mu_);
  auto it = kids_.find(path);
  if (it == kids_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

Coordinator::WatchId Coordinator::watch(const std::string& path,
                                        WatchCallback cb, bool prefix) {
  std::lock_guard lk(mu_);
  const WatchId id = next_watch_++;
  watches_[id] = Watch{path, std::move(cb), prefix};
  return id;
}

void Coordinator::unwatch(WatchId id) {
  std::lock_guard lk(mu_);
  watches_.erase(id);
}

common::Status Coordinator::put_str(const std::string& path,
                                    const std::string& s) {
  return put(path, common::Bytes(s.begin(), s.end()));
}

std::optional<std::string> Coordinator::get_str(
    const std::string& path) const {
  auto r = get(path);
  if (!r.ok()) return std::nullopt;
  return std::string(r.value().begin(), r.value().end());
}

}  // namespace typhoon::coordinator
