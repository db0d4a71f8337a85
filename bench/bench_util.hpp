/// Shared helpers for the experiment benches. Every bench prints the
/// paper-artifact table first (the rows EXPERIMENTS.md records), then
/// runs its google-benchmark timings.

#pragma once

#include "core/samples.hpp"
#include "core/session.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace bb::bench {

/// Machine-readable perf records. Benches `record()` one row per
/// (configuration, problem size) and `write()` a JSON array to
/// BENCH.json; an existing file is merged into, so several benches run
/// back-to-back (the CI perf-smoke job) build one combined file and the
/// perf trajectory is recorded rather than scrolled away.
///
/// Row shape: {"name": ..., "n": ..., "ns_per_op": ..., "items_per_sec": ...,
/// "timestamp": ISO-8601 UTC write time, "commit": the BB_BENCH_COMMIT
/// environment value (CI sets it to the commit SHA; omitted when unset),
/// "host": {"logical_cpus", "effective_parallelism", "build_type",
/// "compiler"}} where items are whatever the bench processes (chips,
/// rects, ...). The trajectory file thus records *when*, *at which
/// commit* and *on what host* each row was measured. The checker
/// (tools/check_bench_json.py) accepts a row without a timestamp or a
/// commit, but not one without its host.
class BenchJson {
 public:
  static BenchJson& instance() {
    static BenchJson inst;
    return inst;
  }

  /// Non-finite rates (a sub-resolution timing divides by zero) are
  /// clamped to 0 so the file always stays parseable JSON — "inf"/"nan"
  /// are not JSON tokens and one such row used to poison the whole
  /// trajectory.
  void record(std::string name, long long n, double nsPerOp, double itemsPerSec) {
    if (!std::isfinite(nsPerOp) || nsPerOp < 0) nsPerOp = 0;
    if (!std::isfinite(itemsPerSec) || itemsPerSec < 0) itemsPerSec = 0;
    rows_.push_back({std::move(name), n, nsPerOp, itemsPerSec});
  }

  /// Record one timed run of `n` items: one "op" is the whole run (one
  /// engine invocation over n items), so ns_per_op is the run's wall
  /// time and items_per_sec is n over it — the shape every scaling
  /// bench records. The elapsed time is clamped to clock resolution so
  /// smoke-mode runs on tiny problem sizes can never produce a
  /// division-by-zero row.
  void recordRun(std::string name, long long n, double seconds) {
    const double s = seconds > 1e-9 ? seconds : 1e-9;
    record(std::move(name), n, s * 1e9, static_cast<double>(n) / s);
  }

  /// Names are bench-internal identifiers ([a-z0-9_]), not user text, so
  /// no JSON string escaping is needed. Writes to a temp file and renames
  /// over `path` so a crash mid-write never leaves a truncated array.
  /// Returns false when THIS process recorded no rows or the write
  /// itself failed (each cause reported on stderr separately) — rows
  /// merged from earlier benches don't count, so a bench that silently
  /// stopped reporting exits nonzero even when it runs after one that
  /// didn't.
  bool write(const std::string& path = "BENCH.json") const {
    std::string existing;
    {
      std::ifstream in(path);
      if (in) {
        std::ostringstream ss;
        ss << in.rdbuf();
        existing = ss.str();
      }
    }
    const std::string tmp = path + ".tmp";
    {
      // Merge with a previous array: strip its closing bracket and append.
      const auto close = existing.rfind(']');
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "BenchJson: cannot open %s for writing\n", tmp.c_str());
        return false;
      }
      bool first = true;
      if (close != std::string::npos && existing.find('[') != std::string::npos) {
        out << existing.substr(0, close);
        if (existing.find('{') != std::string::npos) {
          first = false;  // previous array had rows; separate with a comma
        }
      } else {
        out << "[\n";
      }
      const std::string stamp = isoTimestampUtc();
      const std::string commit = commitFromEnv();
      const std::string& host = hostJson();
      for (const Row& r : rows_) {
        if (!first) out << ",\n";
        first = false;
        char buf[384];
        std::snprintf(buf, sizeof(buf),
                      "  {\"name\": \"%s\", \"n\": %lld, \"ns_per_op\": %.1f, "
                      "\"items_per_sec\": %.1f, \"timestamp\": \"%s\"",
                      r.name.c_str(), r.n, r.nsPerOp, r.itemsPerSec, stamp.c_str());
        out << buf;
        if (!commit.empty()) out << ", \"commit\": \"" << commit << '"';
        out << ", \"host\": " << host << '}';
      }
      out << "\n]\n";
      if (!out.good()) {
        std::fprintf(stderr, "BenchJson: write to %s failed\n", tmp.c_str());
        std::remove(tmp.c_str());
        return false;
      }
    }
    // POSIX rename replaces atomically; Windows refuses to clobber, so
    // fall back to remove-then-rename there (a crash in between loses
    // only the old file, never leaves a truncated one).
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(path.c_str());
      if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "BenchJson: cannot rename %s over %s\n", tmp.c_str(),
                     path.c_str());
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (rows_.empty()) {
      std::fprintf(stderr, "BenchJson: this bench recorded zero rows\n");
      return false;
    }
    return true;
  }

 private:
  struct Row {
    std::string name;
    long long n;
    double nsPerOp;
    double itemsPerSec;
  };

  /// Write time as ISO-8601 UTC ("2026-08-08T12:34:56Z").
  static std::string isoTimestampUtc() {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
#if defined(_WIN32)
    gmtime_s(&tm, &now);
#else
    gmtime_r(&now, &tm);
#endif
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
  }

  /// BB_BENCH_COMMIT, restricted to identifier-safe characters (it goes
  /// into JSON unescaped) and a git-SHA-ish length. Empty when unset.
  static std::string commitFromEnv() {
    const char* env = std::getenv("BB_BENCH_COMMIT");
    if (env == nullptr) return {};
    std::string out;
    for (const char* p = env; *p != '\0' && out.size() < 64; ++p) {
      const char c = *p;
      const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                      (c >= 'A' && c <= 'Z') || c == '_' || c == '.' || c == '-';
      if (ok) out.push_back(c);
    }
    return out;
  }

  /// The host every row of this process ran on, as a JSON object:
  /// logical CPUs; effective parallelism, N * t1 / tN for the same spin
  /// on one thread and on all N logical CPUs at once (best of three, N on
  /// an idle host, less when neighbours share it); the build type; and
  /// the compiler. Calibrated once per process, on the first write.
  static const std::string& hostJson() {
    static const std::string json = [] {
      const auto spin = [] {
        volatile std::uint64_t x = 0;
        for (std::uint64_t i = 0; i < 20'000'000; ++i) x = x + i;
      };
      const auto msOf = [](auto&& fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
      };
      const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
      double t1 = 1e300, tn = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        t1 = std::min(t1, msOf(spin));
        tn = std::min(tn, msOf([&] {
                        std::vector<std::thread> ts;
                        for (unsigned i = 0; i < cpus; ++i) ts.emplace_back(spin);
                        for (std::thread& t : ts) t.join();
                      }));
      }
      const double effective = tn > 0 ? cpus * t1 / tn : 0;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"logical_cpus\": %u, \"effective_parallelism\": %.3f, "
                    "\"build_type\": \"%s\", \"compiler\": \"%s\"}",
                    cpus, std::isfinite(effective) ? effective : 0.0,
                    jsonSafe(buildType()).c_str(), jsonSafe(compilerVersion()).c_str());
      return std::string(buf);
    }();
    return json;
  }

  static std::string buildType() {
#ifdef BB_BENCH_BUILD_TYPE
    const std::string t = BB_BENCH_BUILD_TYPE;
    return t.empty() ? "unknown" : t;
#else
    return "unknown";
#endif
  }

  static std::string compilerVersion() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#elif defined(_MSC_VER)
    return "msvc " + std::to_string(_MSC_VER);
#else
    return "unknown";
#endif
  }

  /// `s` with the characters a JSON string cannot hold verbatim (quote,
  /// backslash, control characters) dropped, capped at 128 bytes.
  static std::string jsonSafe(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (out.size() == 128) break;
      if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::vector<Row> rows_;
};

inline std::unique_ptr<core::CompiledChip> compile(const std::string& src,
                                                   core::CompileOptions opts = {}) {
  auto result = core::compileChip(src, std::move(opts));
  if (!result) {
    std::fprintf(stderr, "bench compile failed:\n%s\n",
                 result.diagnostics().toString().c_str());
    std::abort();
  }
  return std::move(*result);
}

/// Typed-description frontend: no text to parse, same pipeline.
inline std::unique_ptr<core::CompiledChip> compile(const icl::ChipDesc& desc,
                                                   core::CompileOptions opts = {}) {
  auto result = core::compileChip(desc, std::move(opts));
  if (!result) {
    std::fprintf(stderr, "bench compile failed:\n%s\n",
                 result.diagnostics().toString().c_str());
    std::abort();
  }
  return std::move(*result);
}

/// Mean wall seconds per call over `iters` calls of `fn`.
template <typename F>
double meanSeconds(int iters, F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() / iters;
}

inline double lambda2(geom::Coord area) {
  return static_cast<double>(area) /
         (geom::kUnitsPerLambda * geom::kUnitsPerLambda);
}

inline double lambdaLen(geom::Coord len) {
  return static_cast<double>(len) / geom::kUnitsPerLambda;
}

}  // namespace bb::bench
