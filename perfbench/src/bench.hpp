/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark: the seeded generator, the
/// design grid every workload draws from, output digests checked against
/// recorded expectations, and the workload interface main.cpp runs.

#pragma once

#include "core/session.hpp"
#include "icl/ast.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

class TraceBuffer;

// ---- randomness ----------------------------------------------------------

/// splitmix64: tiny, portable, and identical on every standard library,
/// so one seed gives one input sequence everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// Cycles through a shuffled copy of `items`, reshuffling on every pass,
/// so a run covers the whole grid before repeating any entry. This keeps
/// the mix of a run close to the grid's own mix whatever the seed.
template <typename T>
class Deck {
 public:
  Deck(std::vector<T> items, std::uint64_t seed) : items_(std::move(items)), rng_(seed) {}
  const T& draw() {
    if (pos_ == 0) rng_.shuffle(items_);
    const T& v = items_[pos_];
    pos_ = (pos_ + 1) % items_.size();
    return v;
  }

 private:
  std::vector<T> items_;
  Rng rng_;
  std::size_t pos_ = 0;
};

// ---- designs ---------------------------------------------------------------

/// One point of the design grid: a sample family with its parameters.
struct Design {
  enum class Family : std::uint8_t { Small, Large, Proto, Segmented };
  Family family = Family::Small;
  int width = 0;
  int regs = 0;

  /// Stable key, e.g. "small-4", "large-16x8", "proto", "seg-8".
  [[nodiscard]] std::string id() const;
  [[nodiscard]] bb::icl::ChipDesc desc() const;
  /// PROTOTYPE as the description declares it (no override).
  [[nodiscard]] bool defaultPrototype() const noexcept { return family == Family::Proto; }
};

/// Every design of the given families over inclusive parameter ranges.
struct GridRanges {
  int smallMin, smallMax;
  int largeWidthMin, largeWidthMax, largeRegsMin, largeRegsMax;
  int segMin, segMax;
};
[[nodiscard]] std::vector<Design> designGrid(const GridRanges& r);

// ---- expected outputs ------------------------------------------------------

/// 64-bit digest of an output. Computed by the benchmark itself (not the
/// library's hash), so a library change cannot move both sides at once.
[[nodiscard]] std::uint64_t digest(std::string_view bytes) noexcept;

/// Name a failed op on stderr (the first few only), so a failing run
/// says what went wrong.
void reportFailure(const std::string& what);

/// Key -> digest of every output a workload can produce, recorded once
/// from a known-good build (`perfbench --record`) and checked on every op.
class ExpectedTable {
 public:
  /// Throws std::runtime_error when the file is missing or malformed.
  static ExpectedTable load(const std::string& path);
  void save(const std::string& path) const;

  /// True when `output` digests to the value recorded under `key`; a
  /// missing key is a mismatch.
  [[nodiscard]] bool matches(const std::string& key, std::string_view output) const;
  void record(const std::string& key, std::string_view output);

  /// Self-check hook: while positive, each `matches` call flips one byte
  /// of its output before digesting (and decrements the budget), so a
  /// test can prove that a wrong output is counted as a failed op.
  static std::atomic<int> corruptBudget;

 private:
  std::map<std::string, std::uint64_t> digests_;
};

// ---- host speed ------------------------------------------------------------

/// Thread CPU time, in ms, of a fixed kernel of the benchmark's own: two
/// passes of seeded fill, sort, decimal formatting and digest over 8192
/// numbers. It calls nothing in the library, so a library change cannot
/// move it; how long it takes says how fast the host runs this thread now.
/// CPU time, not wall time, so another thread sharing the CPU does not
/// count, while a slow or contended host core still does.
[[nodiscard]] double referenceKernelMs();

/// The kernel's fastest time (GCC 12, -O2) on the Xeon host the benchmark
/// was tuned on, where its median under load was 1.6 ms. Reported timings
/// are scaled to this speed: a time t measured while the kernel took r ms
/// reads t * kReferenceKernelMs / r.
inline constexpr double kReferenceKernelMs = 1.2;

/// Key for a chip's `statsText()` under a PROTOTYPE value.
[[nodiscard]] std::string statsKey(const Design& d, bool prototype);

/// Compile `*text` (ICL source) when given, else the typed `desc`, in a
/// fresh session whose stages record spans into `tb`. Null on failure.
[[nodiscard]] bb::core::CompiledChipPtr compileSpanned(const std::string* text,
                                                       const bb::icl::ChipDesc& desc,
                                                       const bb::core::CompileOptions& opts,
                                                       TraceBuffer* tb);

// ---- workloads -------------------------------------------------------------

struct OpOutcome {
  std::chrono::nanoseconds latency{};
  bool ok = false;
};

/// One workload: inputs generated from the seed in `setup`, then ops run
/// in a closed loop by `clients()` threads until the phase ends.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual int clients() const { return 1; }
  /// Which percentile `op_tail_ms` reports: the highest of p90/p99 with at
  /// least ten samples beyond it at this workload's op count.
  [[nodiscard]] virtual int tailPercentile() const = 0;
  virtual void setup() = 0;
  /// Run op `i` of client `client`; `tb` is null on untraced runs.
  /// Latency covers the calls into the library, not the output check.
  virtual OpOutcome op(int client, std::uint64_t i, TraceBuffer* tb) = 0;
  /// The client leaves the loop (serve releases its rendezvous here).
  virtual void clientDone(int /*client*/) {}
  virtual void beginPhase() {}
  /// Per-op counters gathered over the phase (per-layer metrics).
  virtual void endPhase(std::uint64_t /*ops*/, std::map<std::string, double>& /*out*/) {}
};

struct WorkloadConfig {
  std::uint64_t seed = 0;
  std::string dataDir;  ///< directory holding the expected-output tables
};

std::unique_ptr<Workload> makeFlow(const WorkloadConfig& cfg);
std::unique_ptr<Workload> makeVerify(const WorkloadConfig& cfg);
std::unique_ptr<Workload> makeSweep(const WorkloadConfig& cfg);
std::unique_ptr<Workload> makeServe(const WorkloadConfig& cfg);

/// Record the expected-output tables of each workload into `dataDir`.
void recordFlow(const std::string& dataDir);
void recordVerify(const std::string& dataDir);
void recordSweep(const std::string& dataDir);
void recordServe(const std::string& dataDir);

}  // namespace pb
