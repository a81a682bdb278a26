#include "io/results_io.h"

#include <charconv>
#include <ostream>
#include <string>

namespace dynamips::io {

namespace {

const std::string& name_of(const std::map<bgp::Asn, std::string>& names,
                           bgp::Asn asn) {
  static const std::string kUnknown = "unknown";
  auto it = names.find(asn);
  return it == names.end() ? kUnknown : it->second;
}

void write_one_curve(std::ostream& os, const std::string& as_name,
                     const char* split,
                     const stats::TotalTimeFraction& ttf) {
  if (ttf.empty()) return;
  auto thresholds = stats::fig1_thresholds();
  auto curve = ttf.cumulative(thresholds);
  for (std::size_t i = 0; i < thresholds.size(); ++i)
    os << as_name << ',' << split << ',' << thresholds[i] << ',' << curve[i]
       << '\n';
}

// The CDN writers emit about a million rows per study. They format each row
// with std::to_chars into a local buffer and hand the stream large blocks.
// Doubles use chars_format::general at precision 6, which is printf's %g —
// the default ostream formatting — so the bytes equal `os << d`.
constexpr std::size_t kFlushBytes = std::size_t(1) << 16;

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 6)
                      .ptr);
}

void end_row(std::ostream& os, std::string& out) {
  out.push_back('\n');
  if (out.size() >= kFlushBytes) {
    os.write(out.data(), std::streamsize(out.size()));
    out.clear();
  }
}

void flush_rows(std::ostream& os, const std::string& out) {
  os.write(out.data(), std::streamsize(out.size()));
}

}  // namespace

void write_duration_curves_csv(std::ostream& os,
                               const core::AtlasStudy& study) {
  os << "as,split,threshold_hours,cumulative_ttf\n";
  for (const auto& [asn, d] : study.durations) {
    const std::string& name = name_of(study.as_names, asn);
    write_one_curve(os, name, "v4_nds", d.v4_nds);
    write_one_curve(os, name, "v4_ds", d.v4_ds);
    write_one_curve(os, name, "v6", d.v6);
  }
}

void write_cpl_csv(std::ostream& os, const core::AtlasStudy& study) {
  os << "as,cpl,changes,probes\n";
  for (const auto& [asn, s] : study.spatial) {
    const std::string& name = name_of(study.as_names, asn);
    for (int c = 0; c <= 64; ++c) {
      if (s.cpl.changes[std::size_t(c)] == 0) continue;
      os << name << ',' << c << ',' << s.cpl.changes[std::size_t(c)] << ','
         << s.cpl.probes[std::size_t(c)] << '\n';
    }
  }
}

void write_bgp_moves_csv(std::ostream& os, const core::AtlasStudy& study) {
  os << "as,pct_diff_24,pct_diff_bgp_v4,pct_diff_bgp_v6\n";
  for (const auto& [asn, s] : study.spatial) {
    os << name_of(study.as_names, asn) << ',' << s.pct_v4_diff_24() << ','
       << s.pct_v4_diff_bgp() << ',' << s.pct_v6_diff_bgp() << '\n';
  }
}

void write_inference_csv(std::ostream& os, const core::AtlasStudy& study) {
  os << "as,inferred_len,probes\n";
  for (const auto& [asn, infs] : study.subscriber_inference) {
    std::map<int, int> hist;
    for (const auto& inf : infs) ++hist[inf.inferred_len];
    for (const auto& [len, count] : hist)
      os << name_of(study.as_names, asn) << ',' << len << ',' << count
         << '\n';
  }
}

void write_assoc_durations_csv(std::ostream& os,
                               const core::CdnStudy& study) {
  os << "asn,name,mobile,duration_days\n";
  std::string out;
  std::string row_prefix;  // "asn,name,mobile," shared by one ASN's rows
  for (const auto& [asn, stats] : study.analyzer.by_asn()) {
    static const std::string kUnknown = "?";
    auto it = study.asn_names.find(asn);
    const std::string& name =
        it == study.asn_names.end() ? kUnknown : it->second;
    row_prefix.clear();
    append_uint(row_prefix, asn);
    row_prefix.push_back(',');
    row_prefix += name;
    row_prefix += stats.mobile ? ",1," : ",0,";
    for (double d : stats.durations_days) {
      out += row_prefix;
      append_double(out, d);
      end_row(os, out);
    }
  }
  flush_rows(os, out);
}

void write_degrees_csv(std::ostream& os, const core::CdnStudy& study) {
  os << "degree,mobile\n";
  std::string out;
  for (const auto& [degree, mobile] : study.analyzer.degrees()) {
    append_uint(out, degree);
    out += mobile ? ",1" : ",0";
    end_row(os, out);
  }
  flush_rows(os, out);
}

void write_zero_boundaries_csv(std::ostream& os,
                               const core::CdnStudy& study) {
  os << "registry,mobile,boundary,fraction,count\n";
  for (const auto& [cls, z] : study.analyzer.zero_counts()) {
    for (auto boundary :
         {core::ZeroBoundary::kNone, core::ZeroBoundary::k60,
          core::ZeroBoundary::k56, core::ZeroBoundary::k52,
          core::ZeroBoundary::k48}) {
      os << bgp::registry_name(cls.registry) << ','
         << (cls.mobile ? 1 : 0) << ',' << core::zero_boundary_name(boundary)
         << ',' << z.fraction(boundary) << ','
         << z.counts[std::size_t(boundary)] << '\n';
    }
  }
}

}  // namespace dynamips::io
