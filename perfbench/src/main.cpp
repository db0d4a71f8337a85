/// perfbench — runs one workload of the end-to-end benchmark.
///
///   perfbench --workload flow|verify|sweep|serve --seed N --seconds S --trace 0|1
///             [--data DIR] [--trace-out FILE] [--commit ID] [--self-check]
///   perfbench --record [--data DIR]
///
/// --trace 0 runs the workload untraced and prints the end-to-end metrics;
/// --trace 1 runs it untraced and then traced on the same inputs, half of
/// the seconds each, writes the spans as Chrome trace-event JSON and
/// prints the per-layer metrics.
/// The last stdout line is the JSON result. --record writes the expected
/// output tables from the build at hand; --self-check corrupts one output
/// and exits nonzero unless exactly that op is counted as failed.
///
/// Every reported time is scaled to reference host speed. A shared host
/// runs the same work up to twice as slow from one minute to the next,
/// and the process sees it only as longer CPU time. So the run times a
/// fixed kernel of the benchmark's own (pb::referenceKernelMs) every
/// 50 ms between ops, and during set-up after each repetition, and
/// multiplies each time by kReferenceKernelMs over the kernel's median
/// time in the same stretch. The unscaled figures are printed beside them.

#include "bench.hpp"
#include "trace.hpp"

#include "core/pool.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace {

using Clock = std::chrono::steady_clock;
using pb::Layer;

/// setup_s is the median of this many group means; each group repeats
/// the set-up for at least this long. A shared host has slow spells of
/// about a tenth of a second, so a set-up of a few milliseconds lands
/// wholly in or out of one, and a plain median jumps with the share that do.
constexpr int kSetupGroups = 5;
constexpr double kSetupGroupS = 0.25;

/// How often client 0 times the reference kernel between its ops.
constexpr auto kReferenceEvery = std::chrono::milliseconds(50);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dataDir = "perfbench/expected";
  std::string traceOut;
  std::string commit = "unknown";
  bool record = false;
  bool selfCheck = false;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val());
    else if (k == "--data") a.dataDir = val();
    else if (k == "--trace-out") a.traceOut = val();
    else if (k == "--commit") a.commit = val();
    else if (k == "--record") a.record = true;
    else if (k == "--self-check") a.selfCheck = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (!a.record && a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

std::function<std::unique_ptr<pb::Workload>(const pb::WorkloadConfig&)> factory(
    const std::string& name) {
  if (name == "flow") return pb::makeFlow;
  if (name == "verify") return pb::makeVerify;
  if (name == "sweep") return pb::makeSweep;
  if (name == "serve") return pb::makeServe;
  throw std::invalid_argument("unknown workload " + name);
}

double cpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

struct Phase {
  std::vector<double> latMs;  ///< ascending after the phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wallS = 0;
  double cpuS = 0;    ///< includes the reference kernel's refCpuS
  double refMs = 0;   ///< median reference-kernel time over the phase
  double refCpuS = 0;
  std::map<std::string, double> counters;

  [[nodiscard]] double meanMs() const {
    double s = 0;
    for (const double v : latMs) s += v;
    return latMs.empty() ? 0 : s / static_cast<double>(latMs.size());
  }
  /// Factor that takes a time measured in this phase to reference speed.
  [[nodiscard]] double scale() const { return pb::kReferenceKernelMs / refMs; }
};

/// Closed loop: each client issues its next op when the last one returns,
/// until `secs` have passed.
Phase runPhase(pb::Workload& w, double secs, pb::Tracer* tracer) {
  const int n = w.clients();
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> failed(static_cast<std::size_t>(n), 0);
  std::mutex errMu;
  std::string firstError;
  std::vector<double> refs;  // client 0's reference-kernel times
  const bb::core::ThreadPool& pool = bb::core::ThreadPool::global();
  const std::uint64_t tasks0 = pool.tasksExecuted(), spawns0 = pool.threadsSpawned();

  w.beginPhase();
  const double cpu0 = cpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(secs));
  const auto body = [&](int c) {
    pb::TraceBuffer* tb = tracer ? tracer->client(c) : nullptr;
    auto& mine = lat[static_cast<std::size_t>(c)];
    Clock::time_point nextRef = t0;
    for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
      if (c == 0 && Clock::now() >= nextRef) {
        refs.push_back(pb::referenceKernelMs());
        nextRef = Clock::now() + kReferenceEvery;
      }
      pb::OpOutcome o;
      try {
        o = w.op(c, i, tb);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(errMu);
        if (firstError.empty()) firstError = e.what();
      }
      mine.push_back(std::chrono::duration<double, std::milli>(o.latency).count());
      if (!o.ok) ++failed[static_cast<std::size_t>(c)];
    }
    w.clientDone(c);
  };
  if (n == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  }
  Phase p;
  p.wallS = seconds(Clock::now() - t0);
  p.cpuS = cpuSeconds() - cpu0;
  if (refs.empty()) refs.push_back(pb::referenceKernelMs());
  for (const double r : refs) p.refCpuS += r / 1e3;
  std::sort(refs.begin(), refs.end());
  p.refMs = refs[refs.size() / 2];
  for (int c = 0; c < n; ++c) {
    const auto& mine = lat[static_cast<std::size_t>(c)];
    p.latMs.insert(p.latMs.end(), mine.begin(), mine.end());
    p.failed += failed[static_cast<std::size_t>(c)];
  }
  std::sort(p.latMs.begin(), p.latMs.end());
  p.attempted = p.latMs.size();
  if (!firstError.empty()) std::fprintf(stderr, "perfbench: op threw: %s\n", firstError.c_str());
  const double ops = static_cast<double>(std::max<std::uint64_t>(p.attempted, 1));
  w.endPhase(std::max<std::uint64_t>(p.attempted, 1), p.counters);
  p.counters["core.pool_tasks"] = static_cast<double>(pool.tasksExecuted() - tasks0) / ops;
  p.counters["core.pool_spawns"] = static_cast<double>(pool.threadsSpawned() - spawns0) / ops;
  return p;
}

/// All threads of a run share one logical CPU, the last one the process
/// may use. On a shared host the number of CPUs a process actually gets
/// swings from run to run far more than the speed of one. Only serve runs
/// threads side by side; pinned, its two clients and the library's pool
/// take turns on one CPU, so its figures stop tracking the neighbours.
/// Threads inherit the mask, so this runs before any thread starts.
/// Returns the CPU, or -1 (left unpinned) when the mask cannot be set.
int pinToOneCpu(const cpu_set_t& allowed) {
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
  }
  return -1;
}

/// Spin calibration: the same fixed work on 1 thread and on every logical
/// CPU at once. Effective parallelism = N * t1 / tN (N on an idle host).
struct Calibration {
  unsigned cpus = 0;
  double spin1Ms = 0;
  double effective = 0;
};

Calibration calibrate() {
  const auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 20'000'000; ++i) x = x + i;
  };
  Calibration c;
  c.cpus = std::max(1u, std::thread::hardware_concurrency());
  double tnMs = 1e300;
  c.spin1Ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {  // best of three: shared hosts are noisy
    Clock::time_point t0 = Clock::now();
    spin();
    c.spin1Ms = std::min(c.spin1Ms, seconds(Clock::now() - t0) * 1e3);
    t0 = Clock::now();
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < c.cpus; ++i) ts.emplace_back(spin);
    for (std::thread& t : ts) t.join();
    tnMs = std::min(tnMs, seconds(Clock::now() - t0) * 1e3);
  }
  c.effective = static_cast<double>(c.cpus) * c.spin1Ms / tnMs;
  return c;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string hostJson(const Args& a, const Calibration& c, int pinnedCpu, double refMs) {
  std::ostringstream os;
  os << "{\"logical_cpus\":" << c.cpus << ",\"pinned_cpu\":" << pinnedCpu
     << ",\"effective_parallelism\":" << number(c.effective)
     << ",\"spin_1thread_ms\":" << number(c.spin1Ms)
     << ",\"reference_kernel_ms\":" << number(refMs)
     << ",\"compiler\":" << jsonString(__VERSION__)
     << ",\"build_type\":" << jsonString(PB_BUILD_TYPE)
     << ",\"build_flags\":" << jsonString(PB_BUILD_FLAGS)
     << ",\"commit\":" << jsonString(a.commit) << ",\"workload\":" << jsonString(a.workload)
     << ",\"seed\":" << a.seed << ",\"seconds\":" << number(a.seconds) << "}";
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  double unscaled;  ///< the value before scaling to reference speed
};

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + jsonString(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void printMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %14.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.unscaled != m.value) std::printf(" (unscaled %.6g)", m.unscaled);
    std::printf("\n");
  }
}

/// Set-up time, scaled by the kernel times taken between its repetitions.
struct Setup {
  double scaledS = 0;
  double unscaledS = 0;
};

std::vector<Metric> endToEnd(const pb::Workload& w, const Phase& p, const Setup& setup) {
  const double ops = static_cast<double>(p.attempted);
  const int tail = w.tailPercentile();
  std::printf("ops %llu in %.3f s; op_tail_ms is p%d (%.0f samples beyond it)\n",
              static_cast<unsigned long long>(p.attempted), p.wallS, tail,
              ops * (100 - tail) / 100.0);
  std::printf("metric %-28s %14.6g ratio (%llu of %llu ops failed)\n", "error_rate",
              static_cast<double>(p.failed) / ops, static_cast<unsigned long long>(p.failed),
              static_cast<unsigned long long>(p.attempted));
  // The kernel's own time is taken out of the phase's wall and CPU time.
  const double k = p.scale();
  const double p50 = percentile(p.latMs, 50), pTail = percentile(p.latMs, tail);
  const double rate = ops / (p.wallS - p.refCpuS);
  const double cpuMs = (p.cpuS - p.refCpuS) * 1e3 / ops;
  const double rss = peakRssMb();
  return {{"setup_s", setup.scaledS, "s", setup.unscaledS},
          {"op_p50_ms", p50 * k, "ms", p50},
          {"op_tail_ms", pTail * k, "ms", pTail},
          {"ops_per_s", rate / k, "1/s", rate},
          {"cpu_ms_per_op", cpuMs * k, "ms", cpuMs},
          {"peak_rss_mb", rss, "MB", rss}};
}

/// Per-layer metrics, in BENCHMARK.json's order.
std::vector<Metric> perLayer(const pb::Tracer::Rollup& r, const Phase& traced,
                             const Phase& untraced) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(r.ops, 1));
  const auto selfMs = [&](Layer l) {
    return r.selfNs[static_cast<std::size_t>(l)] / 1e6 / ops;
  };
  const auto timing = [&](std::string name, Layer l) {
    return Metric{std::move(name), selfMs(l) * traced.scale(), "ms", selfMs(l)};
  };
  const auto counter = [&](const char* name) {
    const auto it = traced.counters.find(name);
    return it == traced.counters.end() ? 0.0 : it->second;
  };
  const auto plain = [](std::string name, double v, std::string unit) {
    return Metric{std::move(name), v, std::move(unit), v};
  };
  std::vector<Metric> m;
  for (std::size_t i = 1; i < pb::kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    m.push_back(timing(std::string(pb::layerName(l)) + "_ms", l));
  }
  for (const char* c : {"reps.out_kb"}) m.push_back(plain(c, counter(c), "KiB"));
  for (const char* c : {"drc.violations", "lint.findings", "svc.evictions", "svc.compiles",
                        "svc.dedup_waits", "svc.failures", "core.pool_tasks",
                        "core.pool_spawns", "cell.instances_materialized"}) {
    m.push_back(plain(c, counter(c), "count"));
  }
  for (const char* c : {"svc.hit_rate", "svc.lint_report_hit_rate"}) {
    m.push_back(plain(c, counter(c), "ratio"));
  }
  m.push_back(timing("op.untraced_ms", Layer::Op));
  m.push_back(plain("trace.coverage_pct", r.opNs > 0 ? 100.0 * r.coveredNs / r.opNs : 0.0, "%"));
  const double tracedMs = traced.meanMs() * traced.scale();
  const double untracedMs = untraced.meanMs() * untraced.scale();
  m.push_back(plain("trace.overhead_pct", 100.0 * (tracedMs / std::max(untracedMs, 1e-9) - 1.0),
                    "%"));
  m.push_back(plain("error_rate",
                    static_cast<double>(traced.failed + untraced.failed) /
                        static_cast<double>(std::max<std::uint64_t>(
                            traced.attempted + untraced.attempted, 1)),
                    "ratio"));
  return m;
}

void printRollup(const pb::Tracer::Rollup& r) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(r.ops, 1));
  std::printf("rollup over %llu ops: layer, self ms/op, calls/op, share of op time\n",
              static_cast<unsigned long long>(r.ops));
  for (std::size_t i = 0; i < pb::kLayerCount; ++i) {
    if (r.calls[i] == 0) continue;
    std::printf("  %-22s %10.4f %8.3f %6.1f%%\n", pb::layerName(static_cast<Layer>(i)),
                r.selfNs[i] / 1e6 / ops, static_cast<double>(r.calls[i]) / ops,
                r.opNs > 0 ? 100.0 * r.selfNs[i] / r.opNs : 0.0);
  }
}

int run(const Args& a) {
  if (a.record) {
    pb::recordFlow(a.dataDir);
    pb::recordVerify(a.dataDir);
    pb::recordSweep(a.dataDir);
    pb::recordServe(a.dataDir);
    std::printf("recorded expected outputs into %s\n", a.dataDir.c_str());
    return 0;
  }
  const auto make = factory(a.workload);
  const pb::WorkloadConfig cfg{a.seed, a.dataDir};
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpu = sched_getaffinity(0, sizeof allowed, &allowed) == 0 ? pinToOneCpu(allowed) : -1;
  // The calibration measures the whole host, so it runs unpinned.
  const auto host = [&](double refMs) {
    if (cpu >= 0) sched_setaffinity(0, sizeof allowed, &allowed);
    return hostJson(a, calibrate(), cpu, refMs);
  };

  // Traced runs report no setup_s and set up once. Each group's time is
  // scaled by the kernel times taken between its repetitions.
  std::vector<Setup> setups;
  std::unique_ptr<pb::Workload> w;
  for (int g = 0; g < (a.trace == 0 ? kSetupGroups : 1); ++g) {
    const Clock::time_point g0 = Clock::now();
    double sum = 0, refSum = 0;
    int n = 0;
    do {
      w.reset();
      const Clock::time_point t0 = Clock::now();
      w = make(cfg);
      w->setup();
      sum += seconds(Clock::now() - t0);
      refSum += pb::referenceKernelMs();
      ++n;
    } while (a.trace == 0 && seconds(Clock::now() - g0) < kSetupGroupS);
    setups.push_back({sum * pb::kReferenceKernelMs / refSum, sum / n});
  }
  std::sort(setups.begin(), setups.end(),
            [](const Setup& x, const Setup& y) { return x.scaledS < y.scaledS; });

  if (a.selfCheck) pb::ExpectedTable::corruptBudget = 1;
  const double phaseS = a.trace == 0 ? a.seconds : a.seconds / 2;
  const Phase base = runPhase(*w, phaseS, nullptr);
  if (a.selfCheck) {
    const bool ok = base.failed == 1;
    std::printf("self-check %s: one corrupted output, %llu of %llu ops failed\n",
                ok ? "passed" : "FAILED", static_cast<unsigned long long>(base.failed),
                static_cast<unsigned long long>(base.attempted));
    return ok ? 0 : 1;
  }

  if (a.trace == 0) {
    const std::vector<Metric> m = endToEnd(*w, base, setups[setups.size() / 2]);
    printMetrics(m);
    std::printf("host %s\n", host(base.refMs).c_str());
    printResult(base.failed == 0 && base.attempted > 0, base.attempted, base.failed, m);
    return 0;
  }

  // Traced run: the same seed on a fresh set-up, so both phases see the
  // same inputs and their difference is the tracing overhead.
  w.reset();
  w = make(cfg);
  w->setup();
  pb::Tracer tracer(w->clients());
  const Phase traced = runPhase(*w, phaseS, &tracer);
  const pb::Tracer::Rollup r = tracer.rollup();
  printRollup(r);
  const std::vector<Metric> m = perLayer(r, traced, base);
  printMetrics(m);
  const std::string hostInfo = host(traced.refMs);
  if (!a.traceOut.empty()) {
    tracer.writeChromeTrace(a.traceOut, hostInfo);
    std::printf("trace written to %s\n", a.traceOut.c_str());
  }
  std::printf("host %s\n", hostInfo.c_str());
  const std::uint64_t attempted = base.attempted + traced.attempted;
  const std::uint64_t failed = base.failed + traced.failed;
  printResult(failed == 0 && attempted > 0, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
