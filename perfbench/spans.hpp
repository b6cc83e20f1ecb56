// In-memory span recorder for the benchmark's traced run.
//
// The benchmark wraps every call it makes into a layer of the program in a
// span: name, category (the layer's module), start, end, parent span and
// the id of the request it belongs to.  Spans stay in memory until the run
// ends, when they are written as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing, checked by ci/validate_trace.py) and folded
// into per-layer self times.  No span is recorded inside the program.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;  ///< "<layer>.<operation>", e.g. "decomp.lift"
  std::string cat;   ///< layer (module) name
  std::string req;   ///< request id shared by every span of one request
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  Clock::time_point start;
  Clock::time_point end;
  unsigned tid = 0;

  [[nodiscard]] double Millis() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

/// Thread-safe span sink.
class Recorder {
 public:
  [[nodiscard]] std::uint64_t NextId() { return next_id_.fetch_add(1); }

  void Add(Span span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  [[nodiscard]] std::vector<Span> Snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Self time of every span: its duration minus the time its children
  /// (same thread, nested by construction) cover.
  [[nodiscard]] std::map<std::uint64_t, double> SelfMillis() const {
    const std::vector<Span> spans = Snapshot();
    std::map<std::uint64_t, double> self;
    for (const Span& span : spans) self[span.id] += span.Millis();
    for (const Span& span : spans) {
      if (span.parent != 0 && self.count(span.parent) != 0) {
        self[span.parent] -= span.Millis();
      }
    }
    return self;
  }

  /// Chrome trace-event JSON: complete ("X") events sorted by start, times
  /// in microseconds relative to the earliest span.
  bool WriteChromeTrace(const std::string& path) const {
    std::vector<Span> spans = Snapshot();
    if (spans.empty()) return false;
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start < b.start || (a.start == b.start && a.id < b.id);
    });
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const Clock::time_point origin = spans.front().start;
    const auto micros = [](Clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    std::fprintf(out, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"span_id\":%llu,",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.cat.c_str(),
                   micros(s.start - origin), micros(s.end - s.start), s.tid,
                   static_cast<unsigned long long>(s.id));
      if (s.parent != 0) {  // roots carry no parent_id
        std::fprintf(out, "\"parent_id\":%llu,",
                     static_cast<unsigned long long>(s.parent));
      }
      std::fprintf(out, "\"req\":\"%s\"}}", s.req.c_str());
    }
    std::fprintf(out, "\n],\"otherData\":{\"dropped\":0}}\n");
    return std::fclose(out) == 0;
  }

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.  With a null recorder it still times the scope (Millis())
/// but records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* recorder, const char* name, const char* cat,
             std::string req, std::uint64_t parent = 0, unsigned tid = 0)
      : recorder_(recorder) {
    span_.name = name;
    span_.cat = cat;
    span_.req = std::move(req);
    span_.parent = parent;
    span_.tid = tid;
    if (recorder_ != nullptr) span_.id = recorder_->NextId();
    span_.start = Clock::now();
  }
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

  /// End the span now (idempotent); returns its duration in ms.
  double Close() {
    if (!closed_) {
      span_.end = Clock::now();
      closed_ = true;
      if (recorder_ != nullptr) recorder_->Add(span_);
    }
    return span_.Millis();
  }

 private:
  Recorder* recorder_;
  Span span_;
  bool closed_ = false;
};

}  // namespace perfbench
