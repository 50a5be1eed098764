#include "report.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "matrix/simd.h"

namespace rma::e2e {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  return 0;
}

Machine DescribeMachine() {
  Machine m;
  m.hardware_threads = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    m.affinity_cpus = CPU_COUNT(&set);
  }
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) m.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  m.simd = simd::Describe();
  return m;
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPct(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  return total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

TraceLog::TraceLog() : origin_(std::chrono::steady_clock::now()) {}

double TraceLog::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t TraceLog::Open(int64_t parent, int64_t job, int stmt,
                       const std::string& tag, const std::string& name) {
  return Add(parent, job, stmt, tag, name, NowMs(), -1);
}

void TraceLog::Close(int64_t id) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = now;
}

int64_t TraceLog::Add(int64_t parent, int64_t job, int stmt,
                      const std::string& tag, const std::string& name,
                      double start_ms, double end_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({parent, job, stmt, tag, name, start_ms, end_ms, false});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void TraceLog::AddStage(int64_t parent, int64_t job, int stmt,
                        const std::string& tag, const std::string& name,
                        double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({parent, job, stmt, tag, name, 0, ms, true});
}

Status TraceLog::Write(const std::string& path, const std::string& workload,
                       uint64_t seed) const {
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(workload) << ", \"seed\": " << seed
     << ", \"spans\": [";
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i > 0 ? ",\n" : "\n") << "{\"id\": " << i
       << ", \"parent\": " << s.parent << ", \"job\": " << s.job
       << ", \"stmt\": " << s.stmt << ", \"tag\": " << JsonString(s.tag)
       << ", \"name\": " << JsonString(s.name);
    if (s.stage) {
      os << ", \"ms\": " << JsonNumber(s.end_ms);
    } else {
      os << ", \"start_ms\": " << JsonNumber(s.start_ms)
         << ", \"end_ms\": " << JsonNumber(s.end_ms);
    }
    os << "}";
  }
  os << "\n]}\n";
  std::ofstream out(path);
  out << os.str();
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

}  // namespace rma::e2e
