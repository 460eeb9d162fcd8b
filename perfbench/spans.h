// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around calls into the library's public entry
// points, from the benchmark's own code: name, start, end, parent span
// and the id of the request the span belongs to. Nothing is written
// until the run ends; WriteChromeTrace then exports every span through
// the library's trace/chrome_trace writer.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic host time in seconds.
double Now();

struct Span {
  const char* name = "";  // a string literal
  double start = 0;
  double end = 0;
  int parent = -1;   // index of the parent span, -1 for a root
  int request = -1;  // request id shared by all spans of one request
};

class Tracer {
 public:
  // A disabled tracer records nothing.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // A span from construction to destruction, the child of the innermost
  // open span. Scopes nest, so spans close in LIFO order.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int request)
        : tracer_(tracer), index_(tracer.Begin(name, request)) {}
    ~Scope() { tracer_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  // Per span name: summed self time (duration minus the part of its
  // interval its direct children cover) and number of spans.
  struct NameStats {
    double self = 0;
    long count = 0;
  };
  std::map<std::string, NameStats> Stats() const;

  // Writes every span as a Chrome trace (one track per nesting depth).
  void WriteChromeTrace(const std::string& path) const;

 private:
  // Opens a span; returns its index, or -1 when disabled.
  int Begin(const char* name, int request);
  void End(int index);

  bool enabled_;
  double epoch_ = Now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
