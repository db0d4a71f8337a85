/// Compile service demo: Bristle Blocks as a persistent in-process
/// server instead of a batch run. A `svc::CompileService` fronts the
/// staged pipeline with a content-addressed chip cache, so a design
/// environment can keep asking for chips and artifacts and only pay for
/// compilation when the design or the options actually change:
///
///   1. cold compile — a request (typed ChipDesc or ICL source text)
///      misses the cache and runs the full pipeline once,
///   2. warm requests — the same design, whether sent as a typed value
///      or as source text, hits the cache and returns the same
///      immutable chip without running a single stage,
///   3. viewport serving — pan/zoom windows of the mask set stream
///      through the tile-based layout::View path straight off the
///      cached chip (a map-server for the die),
///   4. batch — `compileAll` answers cached requests, compiles each
///      new design once as one whole job on the process-wide
///      `core::ThreadPool`, and hands duplicates in the batch the same
///      chip; the warm server never spawns a thread,
///   5. incremental recompilation — a CompileSession with memoization
///      re-runs only the stages downstream of an option edit,
///   6. service, cache and scheduler-pool statistics.
///
/// Run from the build tree:  ./service_demo

#include "core/samples.hpp"
#include "core/session.hpp"
#include "svc/service.hpp"

#include <cstdio>
#include <string>
#include <vector>

namespace {

void showCompile(const char* tag, const bb::svc::CompileResponse& r) {
  std::printf("  %-28s %s  key=%016llx  %.2f ms\n", tag,
              r.cacheHit ? "HIT " : "MISS",
              static_cast<unsigned long long>(r.key),
              static_cast<double>(r.latency.count()) / 1e6);
}

}  // namespace

int main() {
  bb::svc::CompileService service;
  const bb::icl::ChipDesc small = bb::core::samples::smallChip(4);
  const bb::icl::ChipDesc large = bb::core::samples::largeChip(16, 8);

  // -- cold vs warm --------------------------------------------------------
  std::printf("compile requests:\n");
  showCompile("small (typed, cold)",
              service.compile(bb::svc::CompileRequest::ofDesc(small)));
  showCompile("small (typed, warm)",
              service.compile(bb::svc::CompileRequest::ofDesc(small)));
  // The same design as source text lands on the same cache entry: the
  // key is the digest of the canonical description, not of the request.
  showCompile("small (source text)",
              service.compile(bb::svc::CompileRequest::ofSource("small", small.toString())));
  // Different compile options fingerprint differently: a real miss.
  showCompile("small (rotoRouter off)",
              service.compile(bb::svc::CompileRequest::ofDesc(
                  small, bb::core::CompileOptions::builder().rotoRouter(false).build())));
  showCompile("large (typed, cold)",
              service.compile(bb::svc::CompileRequest::ofDesc(large)));

  // -- viewport serving ----------------------------------------------------
  // Stream windows of the compiled artwork off the cache — pan and zoom
  // without ever re-running a compile stage.
  const bb::svc::CompileResponse whole =
      service.compile(bb::svc::CompileRequest::ofDesc(large));
  const bb::geom::Rect art = whole.chip->flatTop().bbox();
  std::printf("\nviewport requests over '%s' (%lld x %lld units):\n",
              whole.chip->desc.name.c_str(), static_cast<long long>(art.width()),
              static_cast<long long>(art.height()));
  const bb::geom::Coord quarterW = art.width() / 4;
  const bb::geom::Coord quarterH = art.height() / 4;
  for (int step = 0; step < 4; ++step) {  // pan a quarter-size window across
    bb::svc::ViewportRequest vp;
    vp.chip = bb::svc::CompileRequest::ofDesc(large);
    const bb::geom::Coord x = art.x0 + (step * (art.width() - quarterW)) / 3;
    vp.window = bb::geom::Rect{x, art.y0, x + quarterW, art.y0 + quarterH};
    vp.tileSize = bb::geom::lambda(256);
    const bb::svc::EmitResponse tile = service.viewport(vp);
    std::printf("  pan %d/4: window x=[%lld..%lld]  %s  %zu bytes of CIF  %.2f ms\n",
                step + 1, static_cast<long long>(vp.window->x0),
                static_cast<long long>(vp.window->x1), tile.cacheHit ? "HIT " : "MISS",
                tile.payload.size(), static_cast<double>(tile.latency.count()) / 1e6);
  }

  // -- batch ---------------------------------------------------------------
  // A mixed batch through compileAll: new designs compile concurrently on
  // the shared thread pool, and anything already cached (or duplicated
  // within the batch) is served without recompiling.
  std::vector<bb::svc::CompileRequest> batch;
  batch.push_back(bb::svc::CompileRequest::ofDesc(small));  // warm: cache hit
  batch.push_back(bb::svc::CompileRequest::ofDesc(bb::core::samples::segmentedChip(8)));
  batch.push_back(bb::svc::CompileRequest::ofDesc(bb::core::samples::smallChip(6)));
  batch.push_back(bb::svc::CompileRequest::ofDesc(bb::core::samples::smallChip(6)));
  const auto batched = service.compileAll(batch);
  std::printf("\nbatch (%zu requests):\n", batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    showCompile(batched[i].chip ? batched[i].chip->desc.name.c_str() : "(failed)",
                batched[i]);
  }

  // -- incremental recompilation ------------------------------------------
  // The session-level counterpart: edit an option, re-run only the
  // stages downstream of it (here pass3 — ring routing — and finalize).
  std::printf("\nincremental session on '%s':\n", small.name.c_str());
  bb::core::CompileSession session(small, {});
  session.setIncremental(true);
  if (!session.runTo(bb::core::Stage::Finalize)) {
    std::fprintf(stderr, "compile failed:\n%s", session.diagnostics().toString().c_str());
    return 1;
  }
  std::printf("  full run:        %zu stage executions\n", session.totalExecutions());
  const auto restart = session.setOptions(
      bb::core::CompileOptions::builder().rotoRouter(false).build());
  if (restart.has_value() && session.runTo(bb::core::Stage::Finalize)) {
    std::printf("  rotoRouter edit: restarted at '%s', now %zu executions "
                "(pass1/pass2 reused)\n",
                std::string(bb::core::stageName(*restart)).c_str(),
                session.totalExecutions());
  }

  // -- statistics ----------------------------------------------------------
  const bb::svc::ServiceStats s = service.stats();
  const bb::svc::CacheStats c = service.cache().stats();
  std::printf("\nservice stats:\n");
  std::printf("  compile requests   %llu (%llu executed, %llu deduped in flight)\n",
              static_cast<unsigned long long>(s.compileRequests),
              static_cast<unsigned long long>(s.compilesExecuted),
              static_cast<unsigned long long>(s.dedupedInFlight));
  std::printf("  emit/viewport      %llu / %llu\n",
              static_cast<unsigned long long>(s.emitRequests),
              static_cast<unsigned long long>(s.viewportRequests));
  std::printf("  cache              %llu hits / %llu misses (%.0f%% hit rate), "
              "%zu chips, %zu / %zu bytes\n",
              static_cast<unsigned long long>(c.hits),
              static_cast<unsigned long long>(c.misses), c.hitRate() * 100.0,
              c.entries, c.bytes, c.budgetBytes);
  std::printf("  scheduler pool     %llu tasks executed on %llu threads "
              "(spawned once, reused for every batch)\n",
              static_cast<unsigned long long>(s.poolTasksExecuted),
              static_cast<unsigned long long>(s.poolThreadsSpawned));
  return 0;
}
