/// \file service.hpp
/// The compile service — the long-running front door the production
/// story needs: concurrent compile/emit/viewport requests over one
/// process-wide content-addressed chip cache, instead of a batch CLI
/// that recompiles the world every invocation.
///
/// A `CompileService` composes the pieces the repo already has:
///  * requests carry source text or a typed `icl::ChipDesc` plus
///    per-request `CompileOptions` — exactly a `CompileSession`'s inputs;
///  * results are cached in a `ChipCache` keyed by
///    `core::requestDigest` (canonical description text + options
///    fingerprint), so identical designs are never compiled twice;
///  * duplicate concurrent requests for the same key are single-flighted:
///    one thread claims the key and compiles, the rest wait on the
///    result instead of burning cores on identical work;
///  * `compileAll` claims each of its uncached keys once, compiles the
///    claimed keys as whole jobs in one `parallelFor` on the
///    process-shared `core::ThreadPool`, then hands each same-batch twin
///    its claimant's chip;
///  * `viewport` answers pan/zoom requests on cached chips by passing
///    the request's `reps::EmitterOptions` straight to the emitter
///    registry, which streams `layout::View` tiles — a warm viewport
///    request runs zero compile stages (asserted by tests and the
///    service load bench via `ServiceStats::compilesExecuted`).
///
/// Thread safety: every public method may be called concurrently, from
/// client threads. The invariant that keeps the shared pool
/// deadlock-free: *no pool task ever waits on a claim*. A claimant whose
/// compile runs a nested `parallelFor` (for example lint at `threads = 0`)
/// help-runs whatever the queue holds, so a queued task that blocked on
/// that claimant's own key would never be released. Pool tasks only
/// build keys their batch already claimed; every wait on another
/// caller's claim happens on the calling thread (`compile()`, and
/// `compileAll` after its pool work). So do not call the service from
/// inside a pool task.
///
/// A chip enters the cache as compiled: nothing derived is built at
/// insertion. Its flattens, hierarchical index, core netlist and every
/// per-layer spatial index inside them are built by the first request
/// that reads them, from any thread (`core::OnceSlot`), so concurrent
/// requests on one shared chip need no preparation. The cache charges
/// `CompiledChip::approxBytes`, which is fixed at compile time and covers
/// everything a request can later build, so the budget sees a chip's
/// derived artwork before any of it exists.

#pragma once

#include "core/options.hpp"
#include "core/session.hpp"
#include "reps/emitter.hpp"
#include "svc/cache.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace bb::svc {

struct ServiceOptions {
  /// Width limit for `compileAll`'s compiles on the process-shared
  /// `core::ThreadPool` (0 = full pool width: workers + caller). A
  /// *budget on one pool*, not a thread count: requests whose compiles
  /// go parallel underneath (threaded DRC via `DrcOptions::threads`,
  /// parallel tile emission) draw from the same pool, so nesting never
  /// multiplies threads or oversubscribes the machine.
  unsigned threads = 0;
  /// Chip-cache byte budget (0 disables caching).
  std::size_t cacheBudgetBytes = 64ull << 20;
};

/// One compile request: a design (typed description, or source text to
/// parse) plus the options to compile it under.
struct CompileRequest {
  std::string name;                   ///< label for logs/reports
  std::string source;                 ///< ICL text (ignored when desc set)
  std::optional<icl::ChipDesc> desc;  ///< typed description (preferred)
  core::CompileOptions opts;

  [[nodiscard]] static CompileRequest ofSource(std::string name, std::string source,
                                               core::CompileOptions opts = {}) {
    CompileRequest r;
    r.name = std::move(name);
    r.source = std::move(source);
    r.opts = std::move(opts);
    return r;
  }
  [[nodiscard]] static CompileRequest ofDesc(icl::ChipDesc desc,
                                             core::CompileOptions opts = {}) {
    CompileRequest r;
    r.name = desc.name;
    r.desc = std::move(desc);
    r.opts = std::move(opts);
    return r;
  }
};

struct CompileResponse {
  ChipHandle chip;  ///< null on failure (see diags)
  icl::DiagnosticList diags;
  std::uint64_t key = 0;      ///< content address (0 when unkeyable: the text did not parse)
  bool cacheHit = false;      ///< served straight from the chip cache
  /// Waited on an identical in-flight compile: a same-batch twin's, or
  /// another caller's (then the cache was re-checked, as `compile()` does).
  bool deduped = false;
  std::chrono::nanoseconds latency{};

  [[nodiscard]] bool ok() const noexcept { return chip != nullptr; }
};

/// A lint request: identifies a chip like a compile request, plus the
/// analysis options. Any `lint` block inside `chip.opts` is ignored —
/// the chip is compiled *without* lint (sharing its cache entry with
/// plain compiles of the same design) and the analysis is keyed and
/// cached separately, so re-linting a warm chip under new rule options
/// never re-runs a compile stage.
struct LintRequest {
  CompileRequest chip;
  lint::LintOptions lint;
};

struct LintResponse {
  std::shared_ptr<const lint::LintReport> report;  ///< null when the compile failed
  icl::DiagnosticList diags;                       ///< compile diagnostics
  std::uint64_t key = 0;      ///< report content address (chip key + lint options)
  std::uint64_t chipKey = 0;  ///< the underlying chip's content address
  bool chipCacheHit = false;   ///< the chip came from the cache (no stages ran)
  bool reportCacheHit = false; ///< the report came from the report cache (no rules ran)
  std::chrono::nanoseconds latency{};

  [[nodiscard]] bool ok() const noexcept { return report != nullptr; }
};

/// A viewport (pan/zoom) request: the emitter options (window, tile
/// pitch, merging, `hierarchical`) plus the chip, identified like a
/// compile request, and the format to stream it in. A warm
/// `hierarchical` viewport resolves only the instances touching the
/// window (`cell::HierIndex::instancesMaterialized`) and runs zero
/// compile stages; the first one on a chip builds its `hierTop()`.
struct ViewportRequest : reps::EmitterOptions {
  CompileRequest chip;
  std::string format = "cif";  ///< any registered emitter name
};

struct EmitResponse {
  std::string payload;  ///< the emitted artifact (empty on failure)
  icl::DiagnosticList diags;
  std::uint64_t key = 0;
  bool ok = false;
  bool cacheHit = false;  ///< the chip came from the cache (no stages ran)
  std::chrono::nanoseconds latency{};
};

/// Request-level counters (the cache keeps its own byte/entry stats).
struct ServiceStats {
  std::uint64_t compileRequests = 0;
  std::uint64_t emitRequests = 0;
  std::uint64_t viewportRequests = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t compilesExecuted = 0;  ///< full pipeline runs (cache misses)
  std::uint64_t dedupedInFlight = 0;   ///< requests that waited on a twin
  std::uint64_t failures = 0;          ///< compiles that produced no chip
  std::uint64_t lintRequests = 0;
  std::uint64_t lintReportHits = 0;    ///< lint answers served from the report cache
  /// Snapshot of `core::ThreadPool::global().tasksExecuted()` — total
  /// pool tasks ever run process-wide (not just by this service).
  std::uint64_t poolTasksExecuted = 0;
  /// Snapshot of `threadsSpawned()`: worker threads ever created by the
  /// shared pool. Flat across a warm serving phase proves the hot path
  /// spawned zero threads (asserted by the service load bench).
  std::uint64_t poolThreadsSpawned = 0;

  [[nodiscard]] double hitRate() const noexcept {
    const double total = static_cast<double>(cacheHits + cacheMisses);
    return total > 0 ? static_cast<double>(cacheHits) / total : 0.0;
  }
};

class CompileService {
 public:
  explicit CompileService(ServiceOptions opts = {});

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Compile (or fetch) the requested chip. Concurrent calls with the
  /// same content address are single-flighted.
  [[nodiscard]] CompileResponse compile(const CompileRequest& req);

  /// Run a request mix on the shared pool, at most
  /// `ServiceOptions::threads` compiles at once; responses come back in
  /// request order, each `latency` measured from `compileAll` entry
  /// (sojourn time). Identical requests in one batch share one compile
  /// (the twins are `deduped` and `cacheHit`), even with caching off. A
  /// request whose key another caller is compiling waits for it and
  /// re-checks the cache, exactly like `compile()`: with caching off it
  /// compiles its own copy. Failed requests carry diagnostics, never
  /// abort the batch.
  [[nodiscard]] std::vector<CompileResponse> compileAll(std::vector<CompileRequest> reqs);

  /// Compile (or fetch) and emit in `format` with full emitter options.
  [[nodiscard]] EmitResponse emit(const CompileRequest& req, std::string_view format,
                                  const reps::EmitterOptions& eopts = {});

  /// Statically analyze the requested chip (compiling or fetching it
  /// first). Reports are cached by chip key + lint-option fingerprint;
  /// on a warm chip cache this runs zero compile stages, and on a warm
  /// report cache zero rules.
  [[nodiscard]] LintResponse lint(const LintRequest& req);

  /// The map-server endpoint: stream the requested window of the chip's
  /// artwork, tile by tile, through the emitter registry. On a warm
  /// cache this runs zero compile stages — pan/zoom over a compiled chip
  /// costs only index queries over the window's geometry.
  [[nodiscard]] EmitResponse viewport(const ViewportRequest& req);

  /// The content address `compile(req)` would use; nullopt when the
  /// request's source text does not parse. A description that parses
  /// but does not validate still has a key: its compile fails at the
  /// parse stage with the validator's diagnostics and is never cached.
  [[nodiscard]] std::optional<std::uint64_t> keyFor(const CompileRequest& req) const;

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] ChipCache& cache() noexcept { return cache_; }
  [[nodiscard]] const ChipCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept { return opts_; }

 private:
  [[nodiscard]] EmitResponse emitImpl(const CompileRequest& req, std::string_view format,
                                      const reps::EmitterOptions& eopts);

  /// Answer keyed `resp` from the cache, or claim its key (true: the
  /// caller must `build` it next), waiting on the calling thread while
  /// another caller holds the key. Never called from a pool task.
  [[nodiscard]] bool claimOrWait(CompileResponse& resp);

  /// Compile a claimed key and cache the chip, then release the
  /// claim (counting the compile) and wake the waiters.
  void build(icl::ChipDesc desc, const core::CompileOptions& opts, CompileResponse& resp);

  ServiceOptions opts_;
  ChipCache cache_;

  mutable std::mutex mu_;  ///< guards stats_, the in-flight set, lintReports_
  std::condition_variable cv_;  ///< signalled whenever a claim is released
  std::unordered_set<std::uint64_t> inflight_;  ///< claimed keys
  /// Lint reports by report key (chip key + lint-option fingerprint);
  /// guarded by mu_. Reports are small (findings, not geometry), so no
  /// byte budget — the chip cache's eviction pressure bounds variety.
  /// (Qualified: the `lint` member function shadows the namespace here.)
  std::unordered_map<std::uint64_t, std::shared_ptr<const bb::lint::LintReport>> lintReports_;
  ServiceStats stats_;
};

}  // namespace bb::svc
