#include "viewer/canvas_registry.h"

namespace tioga2::viewer {

void CanvasRegistry::Register(const std::string& name, Provider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  providers_[name] = std::move(provider);
}

void CanvasRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  providers_.erase(name);
}

Result<display::Displayable> CanvasRegistry::Resolve(const std::string& name) const {
  Provider provider;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = providers_.find(name);
    if (it == providers_.end()) {
      return Status::NotFound("no canvas named '" + name + "'");
    }
    provider = it->second;
  }
  // Invoked outside the lock: the provider evaluates through the engine, and
  // rendering a wormhole re-enters Resolve for the destination canvas.
  return provider();
}

bool CanvasRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return providers_.count(name) > 0;
}

std::vector<std::string> CanvasRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(providers_.size());
  for (const auto& [name, provider] : providers_) names.push_back(name);
  return names;
}

}  // namespace tioga2::viewer
