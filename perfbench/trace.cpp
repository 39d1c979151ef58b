#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::buffer() {
  thread_local ThreadBuffer* tls = nullptr;
  if (tls == nullptr) {
    const std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    tls = buffers_.back().get();
    tls->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    tls->spans.reserve(4096);
  }
  return *tls;
}

std::vector<Span> Tracer::collect() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<Span> spans = collect();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    const auto it = child_ns.find(s.id);
    const std::int64_t self = s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
    out[layer] += static_cast<double>(self) * 1e-6;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const Span& s : collect()) {
    f << "{\"name\": \"" << s.name << "\", \"start_us\": " << static_cast<double>(s.start_ns) * 1e-3
      << ", \"end_us\": " << static_cast<double>(s.end_ns) * 1e-3 << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request
      << ", \"thread\": " << s.thread << "}\n";
  }
  return static_cast<bool>(f);
}

double Tracer::span_cost_ns() {
  constexpr int kBlock = 1000;
  ThreadBuffer& buf = buffer();
  const std::size_t keep = buf.spans.size();
  std::vector<double> diff;
  for (int r = 0; r < 21; ++r) {
    double ns[2] = {0.0, 0.0};
    for (int on = 0; on < 2; ++on) {
      set_enabled(on == 1);
      const auto t0 = Clock::now();
      for (int i = 0; i < kBlock; ++i) {
        const SpanScope span("bench.calibrate");
      }
      ns[on] = ms_since(t0) * 1e6 / kBlock;
    }
    buf.spans.resize(keep);
    diff.push_back(ns[1] - ns[0]);
  }
  set_enabled(false);
  return std::max(0.0, median(diff));
}

SpanScope::SpanScope(const char* name, std::uint64_t request) {
  Tracer& tr = Tracer::get();
  if (!tr.enabled()) return;
  buf_ = &tr.buffer();
  saved_current_ = buf_->current;
  saved_request_ = buf_->request;
  if (request != 0) buf_->request = request;
  Span s;
  s.name = name;
  s.id = tr.next_id();
  s.parent = buf_->current;
  s.request = buf_->request;
  s.thread = buf_->thread;
  s.start_ns = tr.now_ns();
  buf_->current = s.id;
  index_ = buf_->spans.size();
  buf_->spans.push_back(s);
}

SpanScope::~SpanScope() {
  if (buf_ == nullptr) return;
  buf_->spans[index_].end_ns = Tracer::get().now_ns();
  buf_->current = saved_current_;
  buf_->request = saved_request_;
}

}  // namespace perfbench
