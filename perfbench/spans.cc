#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/fault.h"
#include "trace/chrome_trace.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const char* name, int request) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start = Now() - epoch_;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].end = Now() - epoch_;
  open_.pop_back();
}

std::map<std::string, Tracer::NameStats> Tracer::Stats() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].push_back({span.start, span.end});
    }
  }
  std::map<std::string, NameStats> stats;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = span.start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end);
      if (to > from) {
        covered += to - from;
      }
      reach = std::max(reach, end);
    }
    NameStats& s = stats[span.name];
    s.self += span.end - span.start - covered;
    ++s.count;
  }
  return stats;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<mepipe::sim::FaultSpan> out;
  out.reserve(spans_.size());
  std::vector<int> depth(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0) {
      depth[i] = depth[static_cast<std::size_t>(span.parent)] + 1;
    }
    mepipe::sim::FaultSpan event;
    event.kind = mepipe::sim::FaultKind::kReplan;
    event.stage = depth[i];
    event.begin = span.start;
    event.end = span.end;
    event.label = std::string(span.name) + " req=" + std::to_string(span.request) +
                  " parent=" +
                  (span.parent >= 0 ? spans_[static_cast<std::size_t>(span.parent)].name : "-");
    out.push_back(std::move(event));
  }
  mepipe::trace::WriteChromeTrace(out, path);
}

}  // namespace perfbench
