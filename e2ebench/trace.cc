#include "trace.h"

#include <chrono>
#include <fstream>

namespace e2ebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Open(const char* name) {
  SpanRecord span;
  span.name = name;
  if (open_.empty()) {
    span.request = ++requests_;
  } else {
    span.parent = open_.back();
    span.request = spans_[static_cast<size_t>(span.parent)].request;
  }
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

double LayerProfile::MeanUs(const std::string& name) const {
  auto it = calls.find(name);
  if (it == calls.end() || it->second.second == 0) {
    return 0;
  }
  return it->second.first / static_cast<double>(it->second.second);
}

double LayerProfile::Share(const std::string& layer) const {
  auto it = self_us.find(layer);
  if (it == self_us.end() || request_us <= 0) {
    return 0;
  }
  return it->second / request_us;
}

LayerProfile Analyze(const std::deque<SpanRecord>& spans) {
  LayerProfile out;
  auto duration_us = [](const SpanRecord& span) {
    return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  };
  std::vector<double> child_us(spans.size(), 0);
  std::vector<std::string> kind(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      const auto parent = static_cast<size_t>(span.parent);
      child_us[parent] += duration_us(span);
      kind[parent] += kind[parent].empty() ? span.name
                                           : std::string("+") + span.name;
    }
  }
  // Request kind → (covered, wall) time.
  std::map<std::string, std::pair<double, double>> kinds;
  double covered_us = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const double us = duration_us(span);
    if (span.parent < 0) {
      out.request_us += us;
      covered_us += child_us[i];
      auto& [covered, wall] = kinds[kind[i]];
      covered += child_us[i];
      wall += us;
      continue;
    }
    const std::string name(span.name);
    auto& [total, count] = out.calls[name];
    total += us;
    ++count;
    out.self_us[name.substr(0, name.find('.'))] += us - child_us[i];
  }
  out.coverage = out.request_us > 0 ? covered_us / out.request_us : 0;
  for (const auto& [name, times] : kinds) {
    const double share = times.second > 0 ? times.first / times.second : 0;
    if (share < out.min_kind_coverage) {
      out.min_kind_coverage = share;
      out.min_kind = name;
    }
  }
  return out;
}

bool WriteSpans(const std::deque<SpanRecord>& spans,
                const std::string& path) {
  std::ofstream file(path);
  file << "request,name,parent,start_ns,end_ns\n";
  for (const SpanRecord& span : spans) {
    file << span.request << ',' << span.name << ',' << span.parent << ','
         << span.start_ns << ',' << span.end_ns << '\n';
  }
  return static_cast<bool>(file);
}

}  // namespace e2ebench
