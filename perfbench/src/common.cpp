#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * double(values.size() - 1);
  std::size_t lo = std::size_t(pos);
  if (lo + 1 >= values.size()) return values.back();
  double frac = pos - double(lo);
  return values[lo] + (values[lo + 1] - values[lo]) * frac;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void LatencyHistogram::record(double seconds) {
  const double ns = seconds * 1e9;
  std::size_t i;
  if (ns < 1e6)
    i = std::size_t(std::max(ns, 0.0) / 100);
  else if (ns < 1e8)
    i = kFine + std::size_t((ns - 1e6) / 1e4);
  else
    i = kFine + kCoarse;
  ++buckets_[std::min(i, buckets_.size() - 1)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * double(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (double(seen) > rank) {
      if (i < kFine) return (double(i) + 0.5) * 100e-9;
      return (1e6 + (double(i - kFine) + 0.5) * 1e4) * 1e-9;
    }
  }
  return 0.1;
}

std::uint64_t digest(const std::vector<std::string>& names,
                     const std::vector<std::string>& contents,
                     std::uint64_t* bytes) {
  std::uint64_t h = fnv1a("");
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    total += contents[i].size();
    h = fnv1a(names[i], h);
    h = fnv1a(std::string_view("\0", 1), h);
    h = fnv1a(contents[i], h);
    h = fnv1a(std::string_view("\0", 1), h);
  }
  if (bytes) *bytes = total;
  return h;
}


std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return std::uint64_t(in.tellg());
}


namespace {

double status_field_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::string_view(field).size();
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0)
      return double(std::strtoull(line.c_str() + n, nullptr, 10)) / 1024.0;
  }
  return 0;
}

}  // namespace

double vm_hwm_mb() { return status_field_mb("VmHWM:"); }
double vm_rss_mb() { return status_field_mb("VmRSS:"); }

void reset_hwm() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double ref_loop_ms() {
  // xorshift64 chain: pure integer ALU work, no memory traffic, so the
  // timing tracks core speed rather than cache or allocator state.
  std::uint64_t t0 = now_ns();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return double(now_ns() - t0) * 1e-6;
}

std::string KeyValues::get(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) throw std::runtime_error("reference lacks " + key);
  return it->second;
}

std::uint64_t KeyValues::get_u64(const std::string& key) const {
  return std::strtoull(get(key).c_str(), nullptr, 10);
}

void KeyValues::save(const std::string& path) const {
  std::string out;
  for (const auto& [k, v] : kv_) out += k + "=" + v + "\n";
  write_file(path, out);
}

KeyValues KeyValues::load(const std::string& path) {
  KeyValues kv;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    std::size_t eq = line.find('=');
    if (eq != std::string::npos)
      kv.kv_[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t trace_id)
    : tracer_(tracer) {
  if (!tracer_) return;
  id_ = std::uint32_t(tracer_->spans_.size());
  std::uint32_t parent =
      tracer_->stack_.empty() ? kNoParent : tracer_->stack_.back();
  tracer_->spans_.push_back({name, parent, trace_id, now_ns(), 0});
  tracer_->stack_.push_back(id_);
}

void Tracer::Scope::close() {
  if (!tracer_) return;
  tracer_->spans_[id_].end_ns = now_ns();
  tracer_->stack_.pop_back();
  tracer_ = nullptr;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(seconds_between(s.start_ns, s.end_ns));
  return out;
}

double Tracer::self_seconds(std::string_view name) const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    std::uint64_t span_ns = s.end_ns - s.start_ns;
    total += double(span_ns - std::min(span_ns, child_ns[i])) * 1e-9;
  }
  return total;
}

double Tracer::coverage(std::string_view root) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& r = spans_[i];
    if (r.parent != kNoParent || root != r.name) continue;
    std::uint64_t covered = 0;
    for (const Span& s : spans_)
      if (s.parent == i) covered += s.end_ns - s.start_ns;
    std::uint64_t wall = r.end_ns - r.start_ns;
    return wall ? double(covered) / double(wall) : 0;
  }
  return 0;
}

double Tracer::root_seconds(std::string_view root) const {
  for (const Span& s : spans_)
    if (s.parent == kNoParent && root == s.name)
      return seconds_between(s.start_ns, s.end_ns);
  return 0;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::string out;
  out.reserve(spans_.size() * 96);
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                  "\"trace_id\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                  i, s.name,
                  s.parent == kNoParent ? -1LL : (long long)s.parent,
                  (unsigned long long)s.trace_id,
                  (unsigned long long)(s.start_ns - base),
                  (unsigned long long)(s.end_ns - base));
    out += buf;
  }
  write_file(path, out);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("info %s %.17g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
               what.c_str());
}

void report_host(const RunOptions& opt, Report& report, double ref_start_ms) {
  const double ref_end_ms = ref_loop_ms();
  const double ref_ms = (ref_start_ms + ref_end_ms) / 2;
  const double error_rate =
      report.attempted()
          ? double(report.failed()) / double(report.attempted())
          : 0;
  report.info("host.ref_loop_ms.start", ref_start_ms, "ms");
  report.info("host.ref_loop_ms.end", ref_end_ms, "ms");
  if (opt.trace) {
    report.metric("host.ref_loop_ms", ref_ms, "ms");
    report.metric("error_rate", error_rate, "ratio");
  } else {
    report.info("host.ref_loop_ms", ref_ms, "ms");
    report.info("error_rate", error_rate, "ratio");
  }
}

int Report::finish() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace pb
