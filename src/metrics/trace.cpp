#include "metrics/trace.hpp"

#include <string>

namespace efac::metrics {

void Tracer::record(std::string_view name, SimDuration elapsed) {
  record_into(*state_, name, elapsed);
}

void Tracer::record_into(State& state, std::string_view name,
                         SimDuration elapsed) {
  std::string key;
  key.reserve(5 + name.size());
  key = "span.";
  key += name;
  state.registry.histogram(key).record(
      elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0);
}

}  // namespace efac::metrics
