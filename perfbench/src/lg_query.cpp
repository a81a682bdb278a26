// lg_query — a closed loop against an in-process LgServer (2 workers)
// serving the atlas + cdn snapshots of a small study. Two keep-alive
// client connections on loopback send a fixed, seeded request mix:
// durations, assoc and infer lookups, pfx2as on random addresses inside
// announced prefixes, healthz and metricsz, and a few percent of requests
// that must come back 404/400. Latency runs from send to the last response
// byte. This is the only workload through lg, HTTP and the rtrie
// longest-prefix match; it bypasses every study layer.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <thread>

#include "bgp/rib.h"
#include "cdn/generator.h"
#include "lg/server.h"
#include "lg/service.h"
#include "simnet/isp.h"
#include "study_io.h"
#include "workloads.h"

namespace pb {

namespace {

namespace lg = dynamips::lg;
namespace net = dynamips::net;
namespace obs = dynamips::obs;
namespace simnet = dynamips::simnet;

/// One request of the mix with the response the in-process service gave
/// for it in the prepare process. metricsz bodies change as counters move,
/// so for them only the status and the document schema are checked.
struct Entry {
  std::string path;
  int status = 200;
  bool exact = true;
  std::string body;
};

struct Fixture {
  core::AtlasStudy atlas;
  core::CdnStudy cdn;
};

/// The small study the looking glass serves. The measured process runs it
/// on one thread so no pool threads leave malloc arenas behind in the
/// baseline its peak RSS is measured from.
Fixture run_fixture(const RunOptions& opt, unsigned threads,
                    obs::MetricsRegistry* registry) {
  Fixture f;
  core::AtlasStudyConfig acfg;
  acfg.atlas.probe_scale = opt.tiny ? 0.01 : 0.02;
  acfg.atlas.window_hours = opt.tiny ? 8000 : 30000;
  acfg.atlas.seed = opt.seed;
  acfg.threads = threads;
  acfg.metrics = registry;
  f.atlas = core::run_atlas_study(simnet::paper_isps(), acfg);
  core::CdnStudyConfig ccfg;
  ccfg.cdn.subscriber_scale = opt.tiny ? 0.003 : 0.01;
  ccfg.cdn.seed = opt.seed;
  ccfg.threads = threads;
  ccfg.metrics = registry;
  f.cdn = core::run_cdn_study(
      dynamips::cdn::default_cdn_population(ccfg.cdn.subscriber_scale), ccfg);
  return f;
}

std::shared_ptr<const lg::LgSnapshot> atlas_snapshot(const Fixture& f) {
  return lg::build_atlas_snapshot(f.atlas, 1, 0, f.atlas.sanitize.probes_seen);
}

std::shared_ptr<const lg::LgSnapshot> cdn_snapshot(const Fixture& f) {
  return lg::build_cdn_snapshot(f.cdn, 1, 0,
                                f.cdn.analyzer.total_tuples() +
                                    f.cdn.analyzer.total_mismatched());
}

lg::Request get(const std::string& path) {
  lg::Request r;
  r.method = "GET";
  r.path = path;
  r.version = "HTTP/1.1";
  return r;
}

bool body_ok(const Entry& e, int status, const std::string& body) {
  if (status != e.status) return false;
  if (e.exact) return body == e.body;
  return body.find("\"schema\": \"dynamips.metrics.v1\"") != std::string::npos;
}

std::vector<std::string> mix_paths(const Fixture& f, std::uint64_t seed,
                                   std::size_t count) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::uint32_t> atlas_asns, cdn_asns;
  for (const auto& [asn, stats] : f.atlas.durations) atlas_asns.push_back(asn);
  for (const auto& [asn, stats] : f.cdn.analyzer.by_asn())
    cdn_asns.push_back(asn);
  const auto v4 = f.atlas.rib.v4_routes();
  const auto v6 = f.atlas.rib.v6_routes();
  auto address = [&]() -> std::string {
    if (rng() % 2 == 0) {
      const auto& r = v4[rng() % v4.size()];
      const int len = r.prefix.length();
      const std::uint32_t host = len == 0 ? ~0u : (len >= 32 ? 0 : ~0u >> len);
      return net::IPv4Address(r.prefix.address().value() |
                              (std::uint32_t(rng()) & host))
          .to_string();
    }
    const auto& r = v6[rng() % v6.size()];
    const int len = r.prefix.length();
    std::uint64_t hi = r.prefix.address().network64();
    std::uint64_t lo = r.prefix.address().iid();
    if (len < 64) {
      hi |= rng() & (len == 0 ? ~0ull : ~0ull >> len);
      lo = rng();
    } else if (len < 128) {
      lo |= rng() & (~0ull >> (len - 64));
    }
    return net::IPv6Address(hi, lo).to_string();
  };
  static const char* bad[] = {"/v1/unknown", "/v1/durations/not-an-asn",
                              "/v1/pfx2as/not-an-address",
                              "/v1/durations/4294967295", "/v1/assoc/1"};
  std::vector<std::string> paths;
  for (std::size_t j = 0; j < count; ++j) {
    const unsigned r = unsigned(rng() % 100);
    if (r < 25)
      paths.push_back("/v1/durations/" +
                      std::to_string(atlas_asns[rng() % atlas_asns.size()]));
    else if (r < 40)
      paths.push_back("/v1/assoc/" +
                      std::to_string(cdn_asns[rng() % cdn_asns.size()]));
    else if (r < 50)
      paths.push_back("/v1/infer/" + address());
    else if (r < 90)
      paths.push_back("/v1/pfx2as/" + address());
    else if (r < 93)
      paths.push_back("/v1/healthz");
    else if (r < 95)
      paths.push_back("/v1/metricsz");
    else
      paths.push_back(bad[rng() % std::size(bad)]);
  }
  return paths;
}

// mix.bin: per entry "path\nstatus exact length\n" followed by the body.
void save_mix(const std::string& path, const std::vector<Entry>& mix) {
  std::string out;
  for (const Entry& e : mix)
    out += e.path + "\n" + std::to_string(e.status) + " " +
           (e.exact ? "1" : "0") + " " + std::to_string(e.body.size()) +
           "\n" + e.body;
  write_file(path, out);
}

std::vector<Entry> load_mix(const std::string& path) {
  const std::string in = read_file(path);
  std::vector<Entry> mix;
  std::size_t pos = 0;
  while (pos < in.size()) {
    Entry e;
    std::size_t nl = in.find('\n', pos);
    e.path = in.substr(pos, nl - pos);
    pos = nl + 1;
    nl = in.find('\n', pos);
    unsigned exact = 0;
    std::size_t len = 0;
    if (std::sscanf(in.c_str() + pos, "%d %u %zu", &e.status, &exact, &len) !=
        3)
      throw std::runtime_error("malformed mix file");
    e.exact = exact != 0;
    pos = nl + 1;
    e.body = in.substr(pos, len);
    pos += len;
    mix.push_back(std::move(e));
  }
  return mix;
}

/// A blocking keep-alive HTTP/1.1 client connection on loopback.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  /// Send one GET and read the whole response; false on a connection
  /// failure or a malformed response.
  bool get(const std::string& path, int* status, std::string* body) {
    const std::string req =
        "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    std::string_view data = req;
    while (!data.empty()) {
      ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(std::size_t(n));
    }
    std::size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos)
      if (!fill()) return false;
    if (buf_.compare(0, 9, "HTTP/1.1 ") != 0) return false;
    *status = std::atoi(buf_.c_str() + 9);
    const std::size_t cl = buf_.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) return false;
    const std::size_t len = std::strtoull(buf_.c_str() + cl + 16, nullptr, 10);
    const std::size_t total = head_end + 4 + len;
    while (buf_.size() < total)
      if (!fill()) return false;
    body->assign(buf_, head_end + 4, len);
    buf_.erase(0, total);
    return true;
  }

 private:
  bool fill() {
    char chunk[16384];
    ssize_t n;
    while ((n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT)) < 0 &&
           (errno == EAGAIN || errno == EWOULDBLOCK)) {
    }
    if (n <= 0) return false;
    buf_.append(chunk, std::size_t(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

struct Served {
  std::unique_ptr<lg::LgService> service;
  std::unique_ptr<lg::LgServer> server;
};

}  // namespace

void prepare_lg_query(const RunOptions& opt) {
  const Fixture f = run_fixture(opt, 4, nullptr);
  lg::LgService service;
  service.publish_atlas(atlas_snapshot(f));
  service.publish_cdn(cdn_snapshot(f));
  std::vector<Entry> mix;
  for (const std::string& path : mix_paths(f, opt.seed, opt.tiny ? 256 : 4096)) {
    Entry e;
    e.path = path;
    if (path == "/v1/metricsz") {
      e.exact = false;  // served from the measured process's registry
    } else {
      lg::Response r = service.handle(get(path));
      e.status = r.status;
      e.body = r.body;
    }
    mix.push_back(std::move(e));
  }
  save_mix(opt.dir + "/mix.bin", mix);
}

void run_lg_query(const RunOptions& opt, Report& report) {
  const std::vector<Entry> mix = load_mix(opt.dir + "/mix.bin");
  obs::MetricsRegistry registry;
  const Fixture f = run_fixture(opt, 1, &registry);
  const double ref_start = ref_loop_ms();
  reset_hwm();

  // Set-up: ISP RIB, snapshot build + publish, server start. Timed three
  // times before the closed loop (the last server is the one measured) and
  // six times after it, so the median samples the host at both ends of the
  // run; servers started only for timing are stopped again untimed.
  std::vector<double> setup, rib_s, snap_s;
  dynamips::bgp::Rib rib;
  auto start_server = [&](Served& served) {
    if (served.server) served.server->stop();
    served.server.reset();
    served.service.reset();
    rib = {};
    std::uint64_t t0 = now_ns();
    simnet::announce_all(simnet::paper_isps(), rib);
    std::uint64_t t1 = now_ns();
    auto asnap = atlas_snapshot(f);
    auto csnap = cdn_snapshot(f);
    std::uint64_t t2 = now_ns();
    lg::ServiceConfig scfg;
    scfg.metrics = &registry;
    scfg.meta.binary = "perfbench/lg_query";
    scfg.meta.seed = opt.seed;
    served.service = std::make_unique<lg::LgService>(scfg);
    served.service->publish_atlas(std::move(asnap));
    served.service->publish_cdn(std::move(csnap));
    lg::ServerConfig cfg;
    cfg.threads = 2;
    cfg.metrics = &registry;
    served.server = std::make_unique<lg::LgServer>(*served.service, cfg);
    core::Status st = served.server->start();
    if (!st.ok()) throw std::runtime_error("cannot start: " + st.to_string());
    std::uint64_t t3 = now_ns();
    setup.push_back(seconds_between(t0, t3));
    rib_s.push_back(seconds_between(t0, t1));
    snap_s.push_back(seconds_between(t1, t2));
  };
  const int reps = opt.tiny ? 1 : 3;
  Served served;
  for (int r = 0; r < reps; ++r) start_server(served);

  // Closed loop: two clients, each starting at its own half of the mix.
  // Completions are also counted per 250 ms window; throughput is the
  // median window, so a stall on the shared host moves one sample, not
  // the run's figure.
  constexpr int kClients = 2;
  constexpr std::uint64_t kWindowNs = 250'000'000;
  const std::uint64_t run_ns = std::uint64_t(opt.seconds * 1e9);
  const std::size_t windows = std::max<std::size_t>(1, run_ns / kWindowNs);
  struct ClientResult {
    LatencyHistogram latency;
    std::vector<std::uint64_t> per_window;
    std::uint64_t lost = 0;        ///< connection failures
    std::uint64_t bad_status = 0;  ///< status other than the reference's
    std::uint64_t mismatched = 0;
  };
  std::vector<ClientResult> results(kClients);
  for (ClientResult& r : results) r.per_window.assign(windows, 0);
  const std::uint16_t port = served.server->port();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + run_ns;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientResult& res = results[c];
      auto conn = std::make_unique<Client>(port);
      std::size_t j = std::size_t(c) * mix.size() / kClients;
      std::string body;
      while (now_ns() < deadline) {
        if (!conn->ok()) {
          ++res.lost;
          conn = std::make_unique<Client>(port);
          if (!conn->ok()) break;
        }
        const Entry& e = mix[j % mix.size()];
        int status = 0;
        std::uint64_t t0 = now_ns();
        bool ok = conn->get(e.path, &status, &body);
        std::uint64_t t1 = now_ns();
        if (!ok) {
          ++res.lost;
          conn = std::make_unique<Client>(port);
          continue;
        }
        res.latency.record(seconds_between(t0, t1));
        if (std::size_t w = (t1 - start) / kWindowNs; w < windows)
          ++res.per_window[w];
        if (opt.perturb && c == 0 && j == 0 && !body.empty())
          body[0] = char(body[0] ^ 0x01);
        if (status != e.status) ++res.bad_status;
        if (!body_ok(e, status, body)) ++res.mismatched;
        ++j;
      }
    });
  }
  for (auto& t : clients) t.join();
  served.server->stop();
  const lg::ServerStats stats = served.server->stats();
  {
    Served timing_only;
    for (int r = 0; r < 2 * reps; ++r) start_server(timing_only);
    timing_only.server->stop();
  }

  LatencyHistogram latency;
  std::vector<double> window_rates(windows, 0);
  std::uint64_t lost = 0, bad_status = 0, mismatched = 0;
  for (const ClientResult& r : results) {
    latency.merge(r.latency);
    for (std::size_t w = 0; w < windows; ++w)
      window_rates[w] += double(r.per_window[w]) / (double(kWindowNs) * 1e-9);
    lost += r.lost;
    bad_status += r.bad_status;
    mismatched += r.mismatched;
  }
  report.attempt(latency.count() + lost, lost + bad_status);
  report.check(latency.count() > 0, "no request completed");
  report.check(mismatched == 0,
               std::to_string(mismatched) +
                   " responses differ from the in-process handle() reference");
  report.check(stats.responses_5xx == 0, "server answered 5xx");

  double export_ms = 0, series = 0;
  export_metrics(registry, opt.workload, opt.seed, &export_ms, &series);
  const double p50 = latency.quantile(0.5);
  const double p99 = latency.quantile(0.99);

  if (!opt.trace) {
    report.metric("setup_s", median(setup), "s");
    report.metric("records_per_s", median(window_rates), "records/s");
    report.metric("peak_rss_mb", vm_hwm_mb(), "MiB");
    report.info("latency_p50_ms", p50 * 1e3, "ms");
    report.info("latency_p99_ms", p99 * 1e3, "ms");
    report.info("requests", double(latency.count()), "count");
    report.info("windows", double(windows), "count");
    report.info("obs.export_ms", export_ms, "ms");
  } else {
    // In-process LgService::handle over the same mix, untraced then with a
    // span per request; every body must still match the reference.
    constexpr int kPasses = 3;
    const lg::LgService& service = *served.service;
    auto handle_pass = [&](Tracer* tr) {
      auto root = span(tr, "run");
      std::uint64_t bad = 0;
      for (int p = 0; p < kPasses; ++p)
        for (std::size_t j = 0; j < mix.size(); ++j) {
          auto s = span(tr, "lg.handle", j);
          lg::Response r = service.handle(get(mix[j].path));
          if (!body_ok(mix[j], r.status, r.body)) ++bad;
        }
      return bad;
    };
    std::uint64_t u0 = now_ns();
    std::uint64_t bad = handle_pass(nullptr);
    const double untraced_s = seconds_between(u0, now_ns());
    Tracer tracer;
    bad += handle_pass(&tracer);
    report.check(bad == 0, "in-process handle() differs from the reference");
    tracer.write_jsonl(opt.dir + "/trace.jsonl");
    const std::vector<double> handle = tracer.durations("lg.handle");

    // Longest-prefix match over the pfx2as address set.
    std::vector<net::IPv4Address> v4;
    std::vector<net::IPv6Address> v6;
    for (const Entry& e : mix) {
      if (!e.path.starts_with("/v1/pfx2as/") || e.status != 200) continue;
      std::string_view a = std::string_view(e.path).substr(11);
      if (auto p4 = net::IPv4Address::parse(a)) v4.push_back(*p4);
      if (auto p6 = net::IPv6Address::parse(a)) v6.push_back(*p6);
    }
    std::vector<double> lpm_ns;
    std::uint64_t found = 0;
    for (int rep = 0; rep < 21; ++rep) {
      std::uint64_t t0 = now_ns();
      for (const auto& a : v4) found += rib.asn_of(a) != 0;
      for (const auto& a : v6) found += rib.asn_of(a) != 0;
      lpm_ns.push_back(double(now_ns() - t0) / double(v4.size() + v6.size()));
    }
    report.check(found == 21 * (v4.size() + v6.size()),
                 "an announced pfx2as address has no route in the ISP RIB");

    report.metric("latency_p50_ms", p50 * 1e3, "ms");
    report.metric("latency_p99_ms", p99 * 1e3, "ms");
    report.metric("bgp.rib_build_s", median(rib_s), "s");
    report.metric("lg.snapshot_build_s", median(snap_s), "s");
    report.metric("lg.handle.p50_us", median(handle) * 1e6, "us");
    report.metric("lg.handle.p99_us", quantile(handle, 0.99) * 1e6, "us");
    report.metric("lg.handle.calls", double(handle.size()), "count");
    report.metric("lg.net_share", 1 - median(handle) / p50, "ratio");
    report.metric("lg.responses_2xx", double(stats.responses_2xx), "count");
    report.metric("lg.responses_4xx", double(stats.responses_4xx), "count");
    report.metric("lg.responses_5xx", double(stats.responses_5xx), "count");
    report.metric("lg.bytes_out", double(stats.bytes_out), "bytes");
    report.metric("rtrie.lpm_ns_p50", median(lpm_ns), "ns");
    report.metric("obs.export_ms", export_ms, "ms");
    report.metric("obs.series", series, "count");
    report.metric("trace.overhead_ratio",
                  tracer.root_seconds("run") / untraced_s - 1, "ratio");
    report.metric("trace.coverage", tracer.coverage("run"), "ratio");
  }
  report_host(opt, report, ref_start);
}

}  // namespace pb
