#include "svc/service.hpp"

#include "core/fingerprint.hpp"
#include "core/pool.hpp"
#include "icl/parser.hpp"
#include "lint/lint.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

namespace bb::svc {

namespace {

using Clock = std::chrono::steady_clock;

void mergeInto(icl::DiagnosticList& dst, const icl::DiagnosticList& src) {
  for (const icl::Diagnostic& d : src.all()) {
    switch (d.severity) {
      case icl::Severity::Error: dst.error(d.loc, d.message); break;
      case icl::Severity::Warning: dst.warning(d.loc, d.message); break;
      case icl::Severity::Note: dst.note(d.loc, d.message); break;
    }
  }
}

/// The request's typed description: the one it carries, or its source
/// text parsed (diagnostics land in `diags`). Nullopt when unparseable.
std::optional<icl::ChipDesc> resolveDesc(const CompileRequest& req,
                                         icl::DiagnosticList& diags) {
  if (req.desc.has_value()) return req.desc;
  auto parsed = icl::parseChip(req.source, diags);
  if (!parsed) return std::nullopt;
  return std::move(*parsed);
}

/// Build the flattens, the hierarchical index and every per-layer
/// spatial index before the chip becomes shared, so later viewport and
/// emit reads (flat or hierarchical) are const-only and the cache charges
/// the flattens at insertion (see service.hpp).
void prewarm(const core::CompiledChip& chip) {
  chip.flatTop().buildIndexes();
  chip.flatCore().buildIndexes();
  chip.hierTop().buildIndexes();
}

}  // namespace

CompileService::CompileService(ServiceOptions opts)
    : opts_(opts), cache_(opts.cacheBudgetBytes) {}

std::optional<std::uint64_t> CompileService::keyFor(const CompileRequest& req) const {
  icl::DiagnosticList diags;
  const std::optional<icl::ChipDesc> desc = resolveDesc(req, diags);
  if (!desc.has_value()) return std::nullopt;
  return core::requestDigest(*desc, req.opts);
}

CompileResponse CompileService::compile(const CompileRequest& req) {
  const auto t0 = Clock::now();
  CompileResponse resp;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compileRequests;
  }

  // Canonicalize the design first: source text is parsed once, and the
  // parsed description is both the cache key's input and the compile's,
  // so a source request and its typed twin share one cache entry.
  const std::optional<icl::ChipDesc> desc = resolveDesc(req, resp.diags);
  if (!desc.has_value()) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failures;
    resp.latency = Clock::now() - t0;
    return resp;
  }
  resp.key = core::requestDigest(*desc, req.opts);

  // Cache lookup + single-flight claim. Whoever claims the key compiles;
  // twins wait and re-check the cache when the compiler finishes.
  bool weCompile = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (ChipHandle hit = cache_.find(resp.key)) {
        ++stats_.cacheHits;
        resp.chip = std::move(hit);
        resp.cacheHit = true;
        resp.latency = Clock::now() - t0;
        return resp;
      }
      if (inflight_.insert(resp.key).second) {
        ++stats_.cacheMisses;
        weCompile = true;
        break;
      }
      ++stats_.dedupedInFlight;
      resp.deduped = true;
      cv_.wait(lock);
    }
  }
  (void)weCompile;

  // Compile outside the lock: the service stays responsive while a big
  // chip builds. The session is over the canonical description, so the
  // result is bit-identical to the typed-frontend path.
  core::CompileSession session(*desc, req.opts);
  auto result = session.run();
  ChipHandle handle;
  if (result) {
    handle = ChipHandle(std::move(*result));
    prewarm(*handle);
    cache_.insert(resp.key, handle);
  }
  mergeInto(resp.diags, result.diagnostics());
  finishKey(resp.key, handle);

  resp.chip = std::move(handle);
  resp.latency = Clock::now() - t0;
  return resp;
}

void CompileService::finishKey(std::uint64_t key, const ChipHandle& handle) {
  std::vector<std::function<void(const ChipHandle&)>> waiters;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compilesExecuted;
    if (handle == nullptr) ++stats_.failures;
    inflight_.erase(key);
    if (const auto it = keyWaiters_.find(key); it != keyWaiters_.end()) {
      waiters = std::move(it->second);
      keyWaiters_.erase(it);
    }
  }
  cv_.notify_all();
  for (const auto& w : waiters) w(handle);
}

/// One pipelined compileAll call: shared by every task the batch
/// schedules. Lives on the calling thread's stack — `compileAll` does
/// not return until `remaining` hits zero, so captured references into
/// it stay valid for every task and parked callback until that request
/// retires (`batchDone`'s locked decrement is its last touch).
struct CompileService::BatchState {
  std::vector<CompileRequest>& reqs;
  std::vector<CompileResponse>& out;
  core::TaskGroup group;
  Clock::time_point start = Clock::now();
  std::atomic<std::size_t> next{0};  ///< lane-admission cursor
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining;  ///< requests not yet retired; guarded by mu

  BatchState(std::vector<CompileRequest>& reqs, std::vector<CompileResponse>& out)
      : reqs(reqs), out(out), remaining(reqs.size()) {}
};

void CompileService::batchAdmit(BatchState& b) {
  const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= b.reqs.size()) return;
  b.group.run([this, &b, i] { batchStep(b, i); });
}

void CompileService::batchDone(BatchState& b, std::size_t i) {
  b.out[i].latency = Clock::now() - b.start;  // sojourn, not service time
  batchAdmit(b);  // keep the lane busy
  // Once `remaining` can read zero, `compileAll` may return and take `b`
  // with it — before this call returns when `i` was parked on another
  // thread's key — so admit first and notify under the lock.
  const std::lock_guard<std::mutex> lock(b.mu);
  --b.remaining;
  b.cv.notify_all();
}

void CompileService::batchStep(BatchState& b, std::size_t i) {
  // A retry (after a failed claimant) starts from a clean response;
  // only the deduped flag survives, it records history.
  const bool wasDeduped = b.out[i].deduped;
  b.out[i] = CompileResponse{};
  CompileResponse& resp = b.out[i];
  resp.deduped = wasDeduped;

  const CompileRequest& req = b.reqs[i];
  const std::optional<icl::ChipDesc> desc = resolveDesc(req, resp.diags);
  if (!desc.has_value()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failures;
    }
    batchDone(b, i);
    return;
  }
  resp.key = core::requestDigest(*desc, req.opts);

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (ChipHandle hit = cache_.find(resp.key)) {
      ++stats_.cacheHits;
      resp.chip = std::move(hit);
      resp.cacheHit = true;
      lock.unlock();
      batchDone(b, i);
      return;
    }
    if (!inflight_.insert(resp.key).second) {
      // A twin holds this key. Unlike `compile()`, don't block a pool
      // task on it — park a callback and yield the thread; `finishKey`
      // fires it with the claimant's outcome.
      ++stats_.dedupedInFlight;
      resp.deduped = true;
      keyWaiters_[resp.key].push_back([this, &b, i](const ChipHandle& handle) {
        if (handle != nullptr) {
          {
            const std::lock_guard<std::mutex> lock2(mu_);
            ++stats_.cacheHits;
          }
          b.out[i].chip = handle;
          b.out[i].cacheHit = true;
          batchDone(b, i);
        } else {
          // Claimant failed: re-run the step (mirrors the blocking
          // path's wake-and-recheck loop; this request may claim now).
          b.group.run([this, &b, i] { batchStep(b, i); });
        }
      });
      return;
    }
    ++stats_.cacheMisses;
  }

  // We claimed the key: compile as a chain of per-stage tasks so other
  // requests' stages interleave with this one's.
  batchStage(b, i, std::make_shared<core::CompileSession>(*desc, req.opts), resp.key);
}

void CompileService::batchStage(BatchState& b, std::size_t i,
                                std::shared_ptr<core::CompileSession> sess,
                                std::uint64_t key) {
  sess->runNext();
  if (!sess->failed() && !sess->finished()) {
    b.group.run([this, &b, i, sess = std::move(sess), key] { batchStage(b, i, sess, key); });
    return;
  }
  CompileResponse& resp = b.out[i];
  ChipHandle handle;
  if (sess->finished()) {
    handle = ChipHandle(sess->takeChip());
    prewarm(*handle);
    cache_.insert(key, handle);
  }
  mergeInto(resp.diags, sess->diagnostics());
  finishKey(key, handle);
  resp.chip = std::move(handle);
  batchDone(b, i);
}

std::vector<CompileResponse> CompileService::compileAll(std::vector<CompileRequest> reqs) {
  std::vector<CompileResponse> out(reqs.size());
  if (reqs.empty()) return out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.compileRequests += reqs.size();
  }

  core::ThreadPool& pool = core::ThreadPool::global();
  const unsigned poolWidth = pool.workerCount() + 1;
  const unsigned width =
      opts_.threads == 0 ? poolWidth : std::min(opts_.threads, poolWidth);

  BatchState b(reqs, out);
  const std::size_t lanes = std::min<std::size_t>(width, reqs.size());
  for (std::size_t l = 0; l < lanes; ++l) batchAdmit(b);

  // The caller participates as a lane worker via group.wait(). The group
  // can drain while requests are still parked on an external claimant's
  // key (their callbacks arrive from that thread), so retire the batch
  // on `remaining`, not on task count.
  for (;;) {
    b.group.wait();
    std::unique_lock<std::mutex> lk(b.mu);
    if (b.remaining == 0) break;
    b.cv.wait_for(lk, std::chrono::milliseconds(1),
                  [&] { return b.remaining == 0; });
    if (b.remaining == 0) break;
  }
  return out;
}

EmitResponse CompileService::emit(const CompileRequest& req, std::string_view format,
                                  const reps::EmitterOptions& eopts) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.emitRequests;
  }
  return emitImpl(req, format, eopts);
}

EmitResponse CompileService::emitImpl(const CompileRequest& req, std::string_view format,
                                      const reps::EmitterOptions& eopts) {
  const auto t0 = Clock::now();
  EmitResponse resp;
  CompileResponse compiled = compile(req);
  resp.diags = std::move(compiled.diags);
  resp.key = compiled.key;
  resp.cacheHit = compiled.cacheHit;
  if (!compiled.ok()) {
    resp.latency = Clock::now() - t0;
    return resp;
  }
  std::ostringstream os;
  if (!reps::EmitterRegistry::global().emit(*compiled.chip, format, os, eopts)) {
    resp.diags.error({}, "unknown emitter format '" + std::string(format) + "'");
    resp.latency = Clock::now() - t0;
    return resp;
  }
  resp.payload = std::move(os).str();
  resp.ok = true;
  resp.latency = Clock::now() - t0;
  return resp;
}

LintResponse CompileService::lint(const LintRequest& req) {
  const auto t0 = Clock::now();
  LintResponse resp;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lintRequests;
  }

  // Compile (or fetch) the chip *without* lint options: the chip cache
  // entry is the same one plain compiles of this design use, so a warm
  // cache answers with zero compile stages. (`bb::lint` is written out
  // below because the member function shadows the namespace.)
  CompileRequest creq = req.chip;
  creq.opts.lint = bb::lint::LintOptions{};
  CompileResponse compiled = compile(creq);
  resp.diags = std::move(compiled.diags);
  resp.chipKey = compiled.key;
  resp.chipCacheHit = compiled.cacheHit;
  if (!compiled.ok()) {
    resp.latency = Clock::now() - t0;
    return resp;
  }

  // Report key: the chip's content address folded with the
  // result-affecting lint options (thread width excluded by design).
  core::Digest d{compiled.key};
  d.update(std::string_view{"bb-lint-report-v1"});
  core::updateDigest(d, req.lint);
  resp.key = d.value();

  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = lintReports_.find(resp.key); it != lintReports_.end()) {
      ++stats_.lintReportHits;
      resp.report = it->second;
      resp.reportCacheHit = true;
    }
  }
  if (resp.report == nullptr) {
    // Concurrent misses on one key may both analyze; the run is pure and
    // deterministic, so the duplicated work is identical and harmless
    // (no single-flight needed for an in-memory analysis).
    auto report = std::make_shared<const bb::lint::LintReport>(
        bb::lint::lintChip(*compiled.chip, req.lint));
    {
      const std::lock_guard<std::mutex> lock(mu_);
      lintReports_.emplace(resp.key, report);
    }
    resp.report = std::move(report);
  }
  resp.latency = Clock::now() - t0;
  return resp;
}

EmitResponse CompileService::viewport(const ViewportRequest& req) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.viewportRequests;
  }
  reps::EmitterOptions eopts;
  eopts.window = req.window;
  eopts.tileSize = req.tileSize;
  eopts.mergeTiles = req.mergeTiles;
  eopts.clipPolygons = req.clipPolygons;
  eopts.hierarchical = req.hierarchical;
  return emitImpl(req.chip, req.format, eopts);
}

ServiceStats CompileService::stats() const {
  ServiceStats s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  s.poolTasksExecuted = core::ThreadPool::global().tasksExecuted();
  s.poolThreadsSpawned = core::ThreadPool::global().threadsSpawned();
  return s;
}

}  // namespace bb::svc
