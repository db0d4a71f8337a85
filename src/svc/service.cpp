#include "svc/service.hpp"

#include "core/fingerprint.hpp"
#include "core/pool.hpp"
#include "icl/parser.hpp"
#include "lint/lint.hpp"

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
/// text parsed (diagnostics land in `diags`). Nullopt when unparseable;
/// the compile session validates what this returns.
std::optional<icl::ChipDesc> resolveDesc(const CompileRequest& req,
                                         icl::DiagnosticList& diags) {
  if (req.desc.has_value()) return req.desc;
  auto parsed = icl::parseChip(req.source, diags);
  if (!parsed) return std::nullopt;
  return std::move(*parsed);
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
  std::optional<icl::ChipDesc> desc = resolveDesc(req, resp.diags);
  if (!desc.has_value()) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failures;
    resp.latency = Clock::now() - t0;
    return resp;
  }
  resp.key = core::requestDigest(*desc, req.opts);

  if (claimOrWait(resp)) build(std::move(*desc), req.opts, resp);
  resp.latency = Clock::now() - t0;
  return resp;
}

bool CompileService::claimOrWait(CompileResponse& resp) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (ChipHandle hit = cache_.find(resp.key)) {
      ++stats_.cacheHits;
      resp.chip = std::move(hit);
      resp.cacheHit = true;
      return false;
    }
    if (inflight_.insert(resp.key).second) {
      ++stats_.cacheMisses;
      return true;
    }
    // Another caller compiles this key; wake when it finishes and re-check.
    ++stats_.dedupedInFlight;
    resp.deduped = true;
    cv_.wait(lock);
  }
}

void CompileService::build(icl::ChipDesc desc, const core::CompileOptions& opts,
                           CompileResponse& resp) {
  // Compile outside the lock: the service stays responsive while a big
  // chip builds. The session is over the canonical description, so the
  // result is bit-identical to the typed-frontend path.
  core::CompileSession session(std::move(desc), opts);
  auto result = session.run();
  ChipHandle handle;
  if (result) {
    handle = ChipHandle(std::move(*result));
    cache_.insert(resp.key, handle);
  }
  mergeInto(resp.diags, result.diagnostics());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compilesExecuted;
    if (handle == nullptr) ++stats_.failures;
    inflight_.erase(resp.key);
  }
  cv_.notify_all();
  resp.chip = std::move(handle);
}

std::vector<CompileResponse> CompileService::compileAll(std::vector<CompileRequest> reqs) {
  const auto t0 = Clock::now();
  const std::size_t n = reqs.size();
  std::vector<CompileResponse> out(n);

  // 1. Resolve and key every request; then, under one lock, answer cache
  // hits and claim each free key once. A later request for a key this
  // batch claimed is its claimant's twin; a request for a key another
  // caller holds waits in step 3, never in a pool task.
  std::vector<std::optional<icl::ChipDesc>> descs(n);
  for (std::size_t i = 0; i < n; ++i) {
    descs[i] = resolveDesc(reqs[i], out[i].diags);
    if (descs[i].has_value()) out[i].key = core::requestDigest(*descs[i], reqs[i].opts);
  }
  std::unordered_map<std::uint64_t, std::size_t> claimant;  // key -> request building it
  std::vector<std::size_t> claimed;  // requests built in step 2
  std::vector<std::size_t> pending;  // twins and waiters, finished in step 3
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.compileRequests += n;
    for (std::size_t i = 0; i < n; ++i) {
      CompileResponse& resp = out[i];
      resp.latency = Clock::now() - t0;
      if (!descs[i].has_value()) {
        ++stats_.failures;
      } else if (ChipHandle hit = cache_.find(resp.key)) {
        ++stats_.cacheHits;
        resp.chip = std::move(hit);
        resp.cacheHit = true;
      } else if (claimant.contains(resp.key)) {
        ++stats_.dedupedInFlight;
        resp.deduped = true;
        pending.push_back(i);
      } else if (inflight_.insert(resp.key).second) {
        ++stats_.cacheMisses;
        claimant.emplace(resp.key, i);
        claimed.push_back(i);
      } else {
        pending.push_back(i);
      }
    }
  }

  // 2. Build the claimed keys, one whole compile per pool index.
  core::ThreadPool::global().parallelFor(
      claimed.size(), 1,
      [&](std::size_t k) {
        const std::size_t i = claimed[k];
        build(std::move(*descs[i]), reqs[i].opts, out[i]);
        out[i].latency = Clock::now() - t0;
      },
      opts_.threads);

  // 3. Twins take their claimant's chip. A twin whose claimant failed,
  // and a request whose key another caller held, go through compile()'s
  // claim-or-wait loop on this thread.
  for (const std::size_t i : pending) {
    CompileResponse& resp = out[i];
    const auto it = claimant.find(resp.key);
    if (it != claimant.end() && out[it->second].chip != nullptr) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.cacheHits;
      }
      resp.chip = out[it->second].chip;
      resp.cacheHit = true;
    } else if (claimOrWait(resp)) {
      build(std::move(*descs[i]), reqs[i].opts, resp);
    }
    resp.latency = Clock::now() - t0;
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
  const reps::Emitter* e = reps::EmitterRegistry::global().find(format);
  if (e == nullptr) {
    resp.diags.error({}, "unknown emitter format '" + std::string(format) + "'");
    resp.latency = Clock::now() - t0;
    return resp;
  }
  resp.payload = e->emitToString(*compiled.chip, eopts);
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
  return emitImpl(req.chip, req.format, req);
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
