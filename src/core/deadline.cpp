#include "core/deadline.hpp"

#include "parallel/fault_injection.hpp"

namespace pmcf::core {

SolveStatus Lifecycle::poll_slow(const par::Tracker& tracker) const {
  if (forced_) return SolveStatus::kCanceled;
  if (token_ != nullptr && token_->canceled()) return SolveStatus::kCanceled;
  if (deadline_.work != 0 && tracker.enabled() && tracker.work() > deadline_.work)
    return SolveStatus::kDeadlineExceeded;
  if (deadline_.wall != Deadline::Clock::time_point::max() &&
      Deadline::Clock::now() > deadline_.wall)
    return SolveStatus::kDeadlineExceeded;
  return SolveStatus::kOk;
}

SolveStatus poll_lifecycle() {
  const ExecBindings& b = current_bindings();
  if (b.lifecycle == nullptr) return SolveStatus::kOk;
  // Free-function poll sites are kCancelRequest injection points too, so the
  // randomized-cancellation property test exercises the context-free layers
  // (expander rebuilds, combinatorial baselines) as well.
  if (b.injector != nullptr && b.injector->should_fire(par::FaultKind::kCancelRequest))
    b.lifecycle->force_cancel();
  if (!b.lifecycle->armed()) return SolveStatus::kOk;
  // The bound tracker is the lifecycle's own context's tracker; when a solve
  // is bound, both slots are set together (SolverContext::bindings).
  return b.lifecycle->poll(b.tracker != nullptr ? *b.tracker : par::Tracker::instance());
}

void throw_if_expired(const char* component) {
  const SolveStatus s = poll_lifecycle();
  if (s == SolveStatus::kOk) return;
  throw ComponentError(s, component,
                       s == SolveStatus::kCanceled ? "solve canceled" : "deadline exceeded");
}

}  // namespace pmcf::core
