#ifndef TIOGA2_VIEWER_CANVAS_REGISTRY_H_
#define TIOGA2_VIEWER_CANVAS_REGISTRY_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "display/displayable.h"

namespace tioga2::viewer {

/// Maps canvas names to the displayables shown on them. Wormhole drawables
/// (§6.2) name their destination canvas; the registry resolves the name when
/// the wormhole is rendered or flown through. Providers are functions so
/// that resolution pulls through the (lazy) dataflow engine.
///
/// Concurrency: every method takes mu_. A registry belongs to one session,
/// whose requests the SessionServer already serializes, so the lock is
/// uncontended in practice. Resolve copies the provider out under the lock
/// and invokes it OUTSIDE the lock: providers run engine evaluations whose
/// rendering may re-enter Resolve for a wormhole destination.
class CanvasRegistry {
 public:
  using Provider = std::function<Result<display::Displayable>()>;

  CanvasRegistry() = default;
  CanvasRegistry(const CanvasRegistry&) = delete;
  CanvasRegistry& operator=(const CanvasRegistry&) = delete;

  /// Registers (or replaces) the provider for `name`.
  void Register(const std::string& name, Provider provider);

  /// Removes a canvas (when its viewer box is deleted). Idempotent.
  void Unregister(const std::string& name);

  /// Evaluates the provider for `name`.
  Result<display::Displayable> Resolve(const std::string& name) const;

  bool Has(const std::string& name) const;

  /// All canvas names, sorted.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Provider> providers_;  // guarded by mu_
};

}  // namespace tioga2::viewer

#endif  // TIOGA2_VIEWER_CANVAS_REGISTRY_H_
