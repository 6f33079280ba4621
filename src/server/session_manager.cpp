#include "server/session_manager.hpp"

namespace netpart::server {

std::shared_ptr<ServerSession> SessionManager::create(
    const std::string& name, const Hypergraph& initial,
    std::uint64_t content_hash, const repart::RepartitionOptions& options,
    std::int64_t now_ms) {
  auto session =
      std::make_shared<ServerSession>(name, initial, content_hash, options);
  session->last_used_ms.store(now_ms, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  sessions_[name] = session;
  return session;
}

std::shared_ptr<ServerSession> SessionManager::find(const std::string& name,
                                                    std::int64_t now_ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) return nullptr;
  it->second->last_used_ms.store(now_ms, std::memory_order_relaxed);
  return it->second;
}

bool SessionManager::erase(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.erase(name) > 0;
}

std::int32_t SessionManager::evict_idle(std::int64_t now_ms,
                                        std::int64_t idle_timeout_ms) {
  if (idle_timeout_ms <= 0) return 0;
  std::int32_t evicted = 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const std::int64_t last =
        it->second->last_used_ms.load(std::memory_order_relaxed);
    if (now_ms - last > idle_timeout_ms) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

std::vector<std::shared_ptr<ServerSession>> SessionManager::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<ServerSession>> out;
  out.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) out.push_back(session);
  return out;
}

std::size_t SessionManager::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace netpart::server
