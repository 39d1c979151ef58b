#pragma once
// In-memory span recorder for the traced run.
//
// Spans come from the benchmark's own code around its calls into the
// library's modules, never from inside the library. Each span records its
// name ("<layer>.<call>"), start and end, the enclosing span on the same
// thread, and the request it serves. Every thread appends to a buffer of its
// own; buffers are only read after the threads that filled them are joined,
// and the whole set is written out when the run ends. A disabled tracer costs
// one relaxed load per scope.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not serving a request
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// All recorded spans, by thread then start order. Call only while no
  /// traced thread is running.
  [[nodiscard]] std::vector<Span> collect() const;

  /// Self time per layer (the name up to the first '.'), in ms: each span's
  /// duration minus the part its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// One JSON object per line. False when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

  /// Cost of one span in ns: a recorded scope minus a disabled one, timed in
  /// alternating blocks on the calling thread. Discards the spans it records
  /// and leaves tracing off. Call only while no traced thread is running.
  double span_cost_ns();

 private:
  friend class SpanScope;

  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::uint64_t current = 0;  ///< innermost open span on this thread
    std::uint64_t request = 0;  ///< request id inherited by new spans
    std::vector<Span> spans;
  };

  Tracer() : epoch_(Clock::now()) {}
  ThreadBuffer& buffer();
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  Clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards buffers_ (registration and collection)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Records one span for its lifetime when tracing is on. `request` != 0 opens
/// a request: spans nested under it (on this thread) carry its id.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer::ThreadBuffer* buf_ = nullptr;  ///< null when tracing is off
  std::size_t index_ = 0;
  std::uint64_t saved_current_ = 0;
  std::uint64_t saved_request_ = 0;
};

}  // namespace perfbench
