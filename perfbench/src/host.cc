#include "perfbench/src/host.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

int64_t HostSpans::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now() - origin_)
      .count();
}

int HostSpans::Open(std::string_view name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void HostSpans::Close(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost-first (ScopedSpan); tolerate an early close.
  auto it = std::find(stack_.begin(), stack_.end(), index);
  stack_.erase(it, stack_.end());
}

void HostSpans::SetContext(int index, const flux::TraceContext& ctx) {
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].ctx = ctx;
  }
}

double HostSpans::MedianSeconds(std::string_view name) const {
  std::vector<int64_t> d;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      d.push_back(s.end_ns - s.start_ns);
    }
  }
  if (d.empty()) {
    return 0;
  }
  std::sort(d.begin(), d.end());
  const size_t n = d.size();
  const double mid = n % 2 == 1 ? static_cast<double>(d[n / 2])
                                : (d[n / 2 - 1] + d[n / 2]) / 2.0;
  return mid / 1e9;
}

bool HostSpans::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"clock\": \"host_steady_ns\", \"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"parent\": %d",
                 i, JsonEscape(s.name).c_str(), s.start_ns, s.end_ns,
                 s.parent);
    if (s.ctx.valid()) {
      std::fprintf(f, ", \"trace_context\": \"%s\"", s.ctx.ToHex().c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

HostFacts CollectHostFacts() {
  HostFacts facts;
  facts.nproc = std::max(1u, std::thread::hardware_concurrency());
  facts.compiler = PERFBENCH_COMPILER;
  facts.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  facts.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  facts.sanitizer = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  facts.sanitizer = true;
#endif
#endif
  return facts;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports KiB
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Json::Key(std::string_view key) {
  if (!first_.empty()) {
    if (!first_.back()) {
      out_ += ',';
    }
    first_.back() = false;
  }
  if (!key.empty()) {
    out_ += '"';
    out_ += JsonEscape(key);
    out_ += "\":";
  }
}

Json& Json::BeginObject(std::string_view key) {
  Key(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::EndObject() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::BeginArray(std::string_view key) {
  Key(key);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::EndArray() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::Num(std::string_view key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

Json& Json::Int(std::string_view key, int64_t value) {
  Key(key);
  out_ += std::to_string(value);
  return *this;
}

Json& Json::Bool(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

Json& Json::Str(std::string_view key, std::string_view value) {
  Key(key);
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

Json& Json::NumArray(std::string_view key, const std::vector<double>& values) {
  BeginArray(key);
  for (const double v : values) {
    Num({}, v);
  }
  return EndArray();
}

}  // namespace perfbench
