#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#if defined(__linux__) || defined(__APPLE__)
#include <time.h>
#endif

namespace pp::obs {

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double to_ms(u64 ns) { return static_cast<double>(ns) / 1e6; }

std::string ms_str(u64 ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", to_ms(ns));
  return buf;
}

}  // namespace

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

u64 thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<u64>(ts.tv_nsec);
#endif
  return 0;
}

u64 fnv1a(std::string_view bytes) {
  u64 h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------- Span --

Span::Span(Session* session, const char* name) {
  if (session == nullptr || !session->enabled()) return;
  session_ = session;
  name_ = name;
  start_ns_ = now_ns();
  cpu_start_ns_ = thread_cpu_ns();
}

void Span::end() {
  if (session_ == nullptr) return;
  Session* s = session_;
  session_ = nullptr;
  const u64 end_ns = now_ns();
  const u64 cpu_end = thread_cpu_ns();
  SpanRec rec;
  rec.name = name_;
  rec.start_ns = start_ns_ >= s->epoch_ns_ ? start_ns_ - s->epoch_ns_ : 0;
  rec.dur_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  rec.cpu_ns = cpu_end >= cpu_start_ns_ ? cpu_end - cpu_start_ns_ : 0;
  s->spans_.push_back(rec);
}

// ------------------------------------------------------------- Session --

Session::Session(bool enabled) : enabled_(enabled), epoch_ns_(now_ns()) {}

i64& Session::counter(const char* name, Stability st) {
  // try_emplace keeps an existing counter's tag: the first touch fixes it.
  return counters_.try_emplace(name, CounterVal{0, st}).first->second.value;
}

void Session::add(const char* name, i64 delta, Stability st) {
  if (!enabled_) return;
  counter(name, st) += delta;
}

void Session::set(const char* name, i64 value, Stability st) {
  if (!enabled_) return;
  counter(name, st) = value;
}

void Session::gauge_max(const char* name, i64 value, Stability st) {
  if (!enabled_) return;
  i64& c = counter(name, st);
  c = std::max(c, value);
}

std::map<std::string, Session::CounterVal> Session::counters() const {
  return counters_;
}

std::vector<SpanRec> Session::merged_spans() const {
  std::vector<SpanRec> out = spans_;
  std::sort(out.begin(), out.end(), [](const SpanRec& a, const SpanRec& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return std::strcmp(a.name, b.name) < 0;
  });
  return out;
}

std::vector<SpanRec> Session::stage_spans() const {
  std::vector<SpanRec> out;
  for (const SpanRec& s : merged_spans())
    if (std::strncmp(s.name, "stage:", 6) == 0) out.push_back(s);
  return out;
}

std::string Session::chrome_trace_json(const std::string& process_name) const {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  os << "  {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{"
     << "\"name\":\"" << json_escape(process_name) << "\"}}";
  os << ",\n  {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
     << "\"args\":{\"name\":\"pipeline\"}}";
  u64 last_ts = 0;
  for (const SpanRec& s : merged_spans()) {
    // trace_event timestamps are microseconds (double precision accepted).
    os << ",\n  {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\""
       << json_escape(s.name) << "\",\"cat\":\"pp\",\"ts\":"
       << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
       << ",\"args\":{\"cpu_ms\":" << to_ms(s.cpu_ns) << "}}";
    last_ts = std::max(last_ts, s.start_ns + s.dur_ns);
  }
  // Counter finals as one "C" sample each at the trace end, so Perfetto
  // shows them as tracks alongside the spans.
  for (const auto& [name, c] : counters()) {
    os << ",\n  {\"ph\":\"C\",\"pid\":1,\"name\":\"" << json_escape(name)
       << "\",\"ts\":" << static_cast<double>(last_ts) / 1e3
       << ",\"args\":{\"value\":" << c.value << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string Session::manifest_json(const ManifestExtra& extra) const {
  std::ostringstream os;
  os << "{\n  \"tool\": \"poly-prof\",\n";
  if (!extra.workload.empty())
    os << "  \"workload\": \"" << json_escape(extra.workload) << "\",\n";
  os << "  \"truncated\": " << (extra.truncated ? "true" : "false") << ",\n";
  os << "  \"degraded_statements\": " << extra.degraded_statements << ",\n";
  os << "  \"diagnostics\": " << extra.diagnostics << ",\n";
  os << "  \"budget\": \""
     << json_escape(extra.budget_state.empty() ? "unlimited"
                                               : extra.budget_state)
     << "\",\n";
  if (!extra.report_fingerprint.empty())
    os << "  \"report_fingerprint\": \""
       << json_escape(extra.report_fingerprint) << "\",\n";
  os << "  \"stages\": [\n";
  const std::vector<SpanRec> stages = stage_spans();
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const SpanRec& s = stages[i];
    os << "    {\"name\": \"" << json_escape(s.name + 6) << "\", \"wall_ms\": "
       << ms_str(s.dur_ns) << ", \"cpu_ms\": " << ms_str(s.cpu_ns) << "}"
       << (i + 1 < stages.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"counters\": {\n";
  const auto cs = counters();
  std::size_t i = 0;
  for (const auto& [name, c] : cs) {
    os << "    \"" << json_escape(name) << "\": " << c.value
       << (++i < cs.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  return os.str();
}

std::string Session::self_profile_section(bool stable) const {
  std::ostringstream os;
  os << "observability: on"
     << (stable ? " (stable: times and timing counters elided)" : "") << "\n";
  for (const SpanRec& s : stage_spans()) {
    os << "stage " << (s.name + 6) << ": ";
    if (stable)
      os << "wall - cpu -";
    else
      os << "wall " << ms_str(s.dur_ns) << " ms  cpu " << ms_str(s.cpu_ns)
         << " ms";
    os << "\n";
  }
  for (const auto& [name, c] : counters()) {
    if (stable && c.stability != Stability::kStable) continue;
    os << "counter " << name << ": " << c.value << "\n";
  }
  return os.str();
}

}  // namespace pp::obs
