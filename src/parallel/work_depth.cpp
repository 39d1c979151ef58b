#include "parallel/work_depth.hpp"

#include <sstream>

#include "core/solver_context.hpp"

namespace pmcf::par {

Tracker& Tracker::instance() { return core::default_context().tracker(); }

std::string to_string(const Cost& c) {
  std::ostringstream os;
  os << "work=" << c.work << " depth=" << c.depth;
  return os.str();
}

}  // namespace pmcf::par
