// Span recording and self-time derivation for the traced run.

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

int Tracer::Open(const char* name, int parent, uint64_t request,
                 uint64_t epoch, Clock::time_point start) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = start;
  span.parent = parent;
  span.request = request;
  span.epoch = epoch;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::Close(int id, Clock::time_point end, uint64_t items) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
  spans_[static_cast<size_t>(id)].items = items;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, LayerTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent: children
    // may overlap (concurrent work) and must not be subtracted twice.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (size_t c : children[i]) {
      covered.emplace_back(std::max(spans_[c].start, s.start),
                           std::min(spans_[c].end, s.end));
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const Clock::time_point from = std::max(lo, reach);
      if (hi > from) {
        covered_ms += MsBetween(from, hi);
        reach = hi;
      }
    }
    LayerTime& layer = out[s.name];
    ++layer.count;
    layer.items += s.items;
    layer.self_ms += MsBetween(s.start, s.end) - covered_ms;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"request\": %llu, \"epoch\": %llu, "
                 "\"items\": %llu}\n",
                 s.name, us(s.start), us(s.end), s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.epoch),
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, int parent,
                     uint64_t request, uint64_t epoch)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->Open(name, parent, request, epoch, Clock::now());
  }
}

SpanScope::~SpanScope() {
  if (tracer_ != nullptr) tracer_->Close(id_, Clock::now(), items_);
}

}  // namespace perfbench
