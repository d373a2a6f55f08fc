// Host-clock measurement helpers for the benchmark driver: a steady-clock
// stopwatch, an in-memory span recorder, host facts, peak RSS, and a tiny
// JSON writer for the raw result the Python front end post-processes.
#ifndef FLUX_PERFBENCH_SRC_HOST_H_
#define FLUX_PERFBENCH_SRC_HOST_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/flux/trace.h"

namespace perfbench {

using HostClock = std::chrono::steady_clock;

inline double SecondsSince(HostClock::time_point begin) {
  return std::chrono::duration<double>(HostClock::now() - begin).count();
}

// Host spans recorded around the benchmark's own calls into the program:
// name, start, end (ns since the recorder was created), the enclosing span,
// and the migration's TraceContext where one exists, so a host span stitches
// to the program's sim-time spans of the same migration. Kept in memory and
// written once, at exit. A disabled recorder records nothing.
class HostSpans {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
    flux::TraceContext ctx;
  };

  explicit HostSpans(bool enabled) : enabled_(enabled) {}

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled).
  int Open(std::string_view name);
  void Close(int index);
  void SetContext(int index, const flux::TraceContext& ctx);

  // Median duration (s) of the closed spans named `name`; 0 if none.
  double MedianSeconds(std::string_view name) const;

  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  HostClock::time_point origin_ = HostClock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(HostSpans& spans, std::string_view name)
      : spans_(spans), index_(spans.Open(name)) {}
  ~ScopedSpan() { spans_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void SetContext(const flux::TraceContext& ctx) {
    spans_.SetContext(index_, ctx);
  }

 private:
  HostSpans& spans_;
  int index_;
};

struct HostFacts {
  unsigned nproc = 1;
  int threads = 1;  // threads running the workload, caller included
                    // (<= nproc)
  std::string compiler;
  std::string build_type;
  bool optimized = false;  // __OPTIMIZE__ and NDEBUG
  bool sanitizer = false;  // ASan / TSan / UBSan instrumented
};
HostFacts CollectHostFacts();

// Peak resident set of this process, MiB.
double PeakRssMb();

// Minimal append-only JSON writer. Keys are emitted in call order; the
// caller balances Begin/End.
class Json {
 public:
  Json& BeginObject(std::string_view key = {});
  Json& EndObject();
  Json& BeginArray(std::string_view key = {});
  Json& EndArray();
  Json& Num(std::string_view key, double value);
  Json& Int(std::string_view key, int64_t value);
  Json& Bool(std::string_view key, bool value);
  Json& Str(std::string_view key, std::string_view value);
  Json& NumArray(std::string_view key, const std::vector<double>& values);
  const std::string& str() const { return out_; }

 private:
  void Key(std::string_view key);
  std::string out_;
  std::vector<bool> first_;
};

std::string JsonEscape(std::string_view s);

}  // namespace perfbench

#endif  // FLUX_PERFBENCH_SRC_HOST_H_
