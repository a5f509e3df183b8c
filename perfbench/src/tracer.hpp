// In-memory span recorder for the host wall-clock benchmark.
//
// Spans are opened by the benchmark itself, around calls into each
// module's public functions (never inside src/), and kept in memory
// until the run ends. Each span records its name, start, end, parent
// span and job id. Untraced runs pass a null Tracer* and record nothing.
//
// Self time of a span is its duration minus the time its children
// cover. Spans on one job are strictly nested on one thread, so the
// children of a span never overlap and "time covered" is their sum.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Job id of spans recorded outside any job (set-up).
inline constexpr int kSetupJob = -1;

struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  int job = kSetupJob;
};

class Tracer {
 public:
  /// Seconds since the tracer was built (steady clock).
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  void set_job(int job) { job_ = job; }

  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job_;
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start_s = now();  // last, so bookkeeping is not timed
    return stack_.back();
  }

  void close(int id) {
    const double t = now();
    spans_[static_cast<std::size_t>(id)].end_s = t;
    stack_.pop_back();
  }

  /// Job-level counter (work done at a layer boundary), summed per name.
  void count(const char* name, double value) {
    counts_[job_][name] += value;
  }

  [[nodiscard]] const std::deque<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::map<int, std::map<std::string, double>>& counts()
      const {
    return counts_;
  }

  /// Self seconds of every span, index-aligned with spans().
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    return self;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point origin_ = clock::now();
  int job_ = kSetupJob;
  // A deque, so opening a span never copies the spans recorded so far
  // (which would add the copy to the enclosing span's self time).
  std::deque<Span> spans_;
  std::vector<int> stack_;
  std::map<int, std::map<std::string, double>> counts_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }

 private:
  Tracer* tracer_;
  int id_;
};

/// Runs `fn` inside a span and returns its result.
template <typename Fn>
decltype(auto) traced(Tracer* tracer, const char* name, Fn&& fn) {
  Scope scope(tracer, name);
  return fn();
}

}  // namespace perfbench
