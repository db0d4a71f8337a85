/// serve — two clients in a closed loop against one compile service:
/// pan/zoom viewports over a hot set of designs, re-opens, lints and cold
/// opens of new variants that overflow the pinned 64 MiB chip cache.

#include "bench.hpp"
#include "trace.hpp"

#include "lint/lint.hpp"
#include "svc/service.hpp"

#include <array>
#include <barrier>
#include <mutex>
#include <stdexcept>

namespace pb {

namespace {

using F = Design::Family;

/// The working set relative to the cache is a property of the workload,
/// so the budget is pinned rather than left at the library default.
constexpr std::size_t kCacheBudget = 64ull << 20;
constexpr bb::geom::Coord kTileLambda = 256;

const std::vector<Design> kHotSet = {
    {F::Small, 4, 0},  {F::Small, 8, 0},  {F::Small, 16, 0}, {F::Segmented, 8, 0},
    {F::Segmented, 16, 0}, {F::Proto, 8, 0}, {F::Large, 8, 4}, {F::Large, 12, 4},
    {F::Large, 16, 4}, {F::Large, 16, 8}, {F::Large, 24, 4}, {F::Large, 32, 8}};

/// Cold opens draw from this bounded pool of large variants (all in the
/// sweep grid, whose `statsText` table checks them). They are the slowest
/// request class, so the tail percentile falls inside it.
std::vector<Design> coldGrid() {
  std::vector<Design> g = designGrid({0, -1, 24, 32, 8, 12, 0, -1});
  std::erase_if(g, [](const Design& d) { return d.family != F::Large; });
  return g;
}

enum class Vp : std::uint8_t { Cif, Gds, CifHier, GdsHier, Svg };
constexpr std::array<const char*, 5> kVpNames = {"cif", "gds", "cif-hier", "gds-hier", "svg"};

/// Pan/zoom windows over a die: the 2x2 and 4x4 grids of its bbox.
std::vector<bb::geom::Rect> windowGrid(const bb::geom::Rect& box) {
  std::vector<bb::geom::Rect> out;
  for (const bb::geom::Coord z : {2, 4}) {
    const bb::geom::Coord w = box.width() / z, h = box.height() / z;
    for (bb::geom::Coord j = 0; j < z; ++j) {
      for (bb::geom::Coord i = 0; i < z; ++i) {
        const bb::geom::Coord x = box.x0 + i * w, y = box.y0 + j * h;
        out.push_back(bb::geom::Rect{x, y, x + w, y + h});
      }
    }
  }
  return out;
}

bb::svc::ViewportRequest viewportRequest(const Design& d, Vp kind,
                                         const bb::geom::Rect& window) {
  bb::svc::ViewportRequest r;
  r.chip = bb::svc::CompileRequest::ofDesc(d.desc());
  r.format = (kind == Vp::Gds || kind == Vp::GdsHier) ? "gds" : (kind == Vp::Svg ? "svg" : "cif");
  r.hierarchical = kind == Vp::CifHier || kind == Vp::GdsHier;
  r.window = window;
  r.tileSize = bb::geom::lambda(kTileLambda);
  return r;
}

std::string viewportKey(const Design& d, Vp kind, std::size_t window) {
  return d.id() + "/" + kVpNames[static_cast<std::size_t>(kind)] + "/w" +
         std::to_string(window);
}

/// The lint option sets clients ask for.
std::vector<bb::lint::LintOptions> lintOptionSets() {
  bb::lint::LintOptions notes;
  notes.minSeverity = bb::icl::Severity::Note;
  bb::lint::LintOptions quiet = notes;
  quiet.suppress = {"erc-unloaded-net"};
  return {bb::lint::LintOptions{}, notes, quiet};
}

std::string lintKey(const Design& d, std::size_t set) {
  return d.id() + "/lint" + std::to_string(set);
}

bb::svc::ServiceOptions serviceOptions() {
  bb::svc::ServiceOptions o;
  o.cacheBudgetBytes = kCacheBudget;
  return o;
}

/// One block of 40 ops: 55% viewports (of which ~15% svg, a third of the
/// rest hierarchical), 20% re-opens, 15% lints and 10% cold opens, one of
/// them issued by both clients at once (always the block's last op). The
/// batched opens (2, 3 and 4 variants in turn) are the slowest class and
/// take 5% of ops, so p99 falls inside them; p50 falls inside the viewports.
enum class Kind : std::uint8_t { Vp, Reopen, Lint, Cold, ColdBatch };
struct Slot {
  Kind kind;
  Vp vp = Vp::Cif;
};
constexpr std::size_t kBlock = 40;

std::vector<Slot> blockSlots() {
  std::vector<Slot> s;
  const auto add = [&](std::size_t n, Slot slot) { s.insert(s.end(), n, slot); };
  add(7, {Kind::Vp, Vp::Cif});
  add(6, {Kind::Vp, Vp::Gds});
  add(3, {Kind::Vp, Vp::CifHier});
  add(3, {Kind::Vp, Vp::GdsHier});
  add(3, {Kind::Vp, Vp::Svg});
  add(8, {Kind::Reopen});
  add(6, {Kind::Lint});
  add(1, {Kind::Cold});
  add(2, {Kind::ColdBatch});
  return s;  // 39 slots; slot 39 is the twin open
}

struct ColdVariant {
  Design design;
  bool prototype = false;
  bb::svc::CompileRequest req;
};

class Serve final : public Workload {
 public:
  explicit Serve(WorkloadConfig cfg) : cfg_(std::move(cfg)) {}

  [[nodiscard]] int clients() const override { return 2; }
  [[nodiscard]] int tailPercentile() const override { return 99; }

  void setup() override {
    stats_ = ExpectedTable::load(cfg_.dataDir + "/stats.txt");
    payloads_ = ExpectedTable::load(cfg_.dataDir + "/serve.txt");
    service_ = std::make_unique<bb::svc::CompileService>(serviceOptions());
    lintSets_ = lintOptionSets();

    for (const Design& d : kHotSet) {
      hotReqs_.push_back(bb::svc::CompileRequest::ofDesc(d.desc()));
      hotVariants_.push_back({d, d.defaultPrototype(), hotReqs_.back()});
      const bb::svc::CompileResponse r = service_->compile(hotReqs_.back());
      if (!r.ok()) throw std::runtime_error("serve: cannot compile hot design " + d.id());
      hotChips_.push_back(r.chip);
      const std::vector<bb::geom::Rect> windows = windowGrid(r.chip->flatTop().bbox());
      for (std::size_t k = 0; k < kVpNames.size(); ++k) {
        std::vector<bb::svc::ViewportRequest> perKind;
        for (const bb::geom::Rect& w : windows) {
          perKind.push_back(viewportRequest(d, static_cast<Vp>(k), w));
        }
        vpReqs_[k].push_back(std::move(perKind));
      }
    }
    for (const Design& d : coldGrid()) {
      for (const bool proto : {false, true}) {
        ColdVariant v{d, proto, bb::svc::CompileRequest::ofDesc(d.desc())};
        v.req.opts.vars["PROTOTYPE"] = proto;
        cold_.push_back(std::move(v));
      }
    }

    // Lint reports start warm, like a design review that already ran once.
    for (const bb::svc::CompileRequest& req : hotReqs_) {
      for (const bb::lint::LintOptions& set : lintSets_) {
        if (!service_->lint({req, set}).ok()) throw std::runtime_error("serve: lint failed");
      }
    }

    // Warm the shared pool: a multi-tile viewport starts its workers, so
    // thread spawns land in setup and not in the timed phase.
    bb::svc::ViewportRequest warm = vpReqs_[0].back().front();
    warm.window = hotChips_.back()->flatTop().bbox();
    warm.tileSize = std::max<bb::geom::Coord>(warm.window->width() / 4, 1);
    if (!service_->viewport(warm).ok) throw std::runtime_error("serve: pool warm-up failed");

    std::vector<std::pair<std::size_t, std::size_t>> vpItems, lintItems;
    std::vector<std::size_t> hotItems;
    for (std::size_t d = 0; d < kHotSet.size(); ++d) {
      hotItems.push_back(d);
      for (std::size_t w = 0; w < vpReqs_[0][d].size(); ++w) vpItems.emplace_back(d, w);
      for (std::size_t s = 0; s < lintSets_.size(); ++s) lintItems.emplace_back(d, s);
    }
    // The cold variants are dealt into one share per client, for its own
    // opens and batches, and one share for the twin opens. A compileAll
    // request that finds its key in flight on another thread is finished
    // by that thread, and CompileService::batchDone still touches the
    // batch after compileAll may have returned (a use-after-return), so
    // no batch may share a key with another client's requests.
    std::vector<std::vector<std::size_t>> shares(static_cast<std::size_t>(clients()) + 1);
    for (std::size_t c = 0; c < cold_.size(); ++c) shares[c % shares.size()].push_back(c);
    for (int c = 0; c < clients(); ++c) {
      const std::uint64_t s = cfg_.seed * 0x2545F4914F6CDD1Dull + static_cast<std::uint64_t>(c);
      clients_.push_back(std::make_unique<Client>(Client{
          Deck<Slot>(blockSlots(), s ^ 1), Deck<std::pair<std::size_t, std::size_t>>(vpItems, s ^ 2),
          Deck<std::size_t>(hotItems, s ^ 3), Deck<std::pair<std::size_t, std::size_t>>(lintItems, s ^ 4),
          Deck<std::size_t>(shares[static_cast<std::size_t>(c)], s ^ 5)}));
    }
    twinOrder_ = shares.back();
    Rng(cfg_.seed ^ 0x7417).shuffle(twinOrder_);
  }

  OpOutcome op(int client, std::uint64_t i, TraceBuffer* tb) override {
    Client& c = *clients_[static_cast<std::size_t>(client)];
    const std::uint64_t opId = (static_cast<std::uint64_t>(client) << 40) | i;
    if (i % kBlock == kBlock - 1) {
      // Both clients reach their k-th twin slot and open the same variant
      // together, so one of them waits on the other's compile.
      twinBarrier_.arrive_and_wait();
      return openOne(cold_[twinOrder_[(i / kBlock) % twinOrder_.size()]], opId, tb);
    }
    const Slot slot = c.slots.draw();
    switch (slot.kind) {
      case Kind::Vp: {
        const auto [d, w] = c.vp.draw();
        return viewport(slot.vp, d, w, opId, tb);
      }
      case Kind::Reopen: return reopen(c.hot.draw(), opId, tb);
      case Kind::Lint: {
        const auto [d, s] = c.lint.draw();
        return lint(d, s, opId, tb);
      }
      case Kind::Cold: return openOne(cold_[c.cold.draw()], opId, tb);
      case Kind::ColdBatch: {
        std::vector<const ColdVariant*> batch(2 + c.batches++ % 3);
        for (const ColdVariant*& v : batch) v = &cold_[c.cold.draw()];
        return openBatch(batch, opId, tb);
      }
    }
    return {};
  }

  void clientDone(int) override { twinBarrier_.arrive_and_drop(); }

  void beginPhase() override {
    before_ = service_->stats();
    cacheBefore_ = service_->cache().stats();
    materializedBefore_ = materialized();
  }

  void endPhase(std::uint64_t ops, std::map<std::string, double>& out) override {
    const bb::svc::ServiceStats s = service_->stats();
    const bb::svc::CacheStats cs = service_->cache().stats();
    const auto perOp = [&](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before) / static_cast<double>(ops);
    };
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
      return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
    };
    out["svc.hit_rate"] = ratio(s.cacheHits - before_.cacheHits,
                                s.cacheHits - before_.cacheHits + s.cacheMisses -
                                    before_.cacheMisses);
    out["svc.lint_report_hit_rate"] = ratio(s.lintReportHits - before_.lintReportHits,
                                            s.lintRequests - before_.lintRequests);
    out["svc.evictions"] = perOp(cs.evictions, cacheBefore_.evictions);
    out["svc.compiles"] = perOp(s.compilesExecuted, before_.compilesExecuted);
    out["svc.dedup_waits"] = perOp(s.dedupedInFlight, before_.dedupedInFlight);
    out["svc.failures"] = perOp(s.failures, before_.failures);
    out["cell.instances_materialized"] = perOp(materialized(), materializedBefore_);
  }

 private:
  struct Client {
    Deck<Slot> slots;
    Deck<std::pair<std::size_t, std::size_t>> vp;
    Deck<std::size_t> hot;
    Deck<std::pair<std::size_t, std::size_t>> lint;
    Deck<std::size_t> cold;
    std::size_t batches = 0;
  };

  /// Instances materialized by hierarchical viewports on the hot chips,
  /// including chips the cache has since evicted and replaced.
  [[nodiscard]] std::uint64_t materialized() {
    const std::lock_guard<std::mutex> lock(hotMu_);
    std::uint64_t n = retiredMaterialized_;
    for (const bb::svc::ChipHandle& h : hotChips_) n += h->hierTop().instancesMaterialized();
    return n;
  }

  /// Re-open a hot design; when the cache evicted and recompiled it, track
  /// the new chip (and bank what the old one materialized).
  OpOutcome reopen(std::size_t d, std::uint64_t opId, TraceBuffer* tb) {
    bb::svc::ChipHandle chip;
    const OpOutcome o = openOne(hotVariants_[d], opId, tb, &chip);
    const std::lock_guard<std::mutex> lock(hotMu_);
    if (chip && chip != hotChips_[d]) {
      retiredMaterialized_ += hotChips_[d]->hierTop().instancesMaterialized();
      hotChips_[d] = std::move(chip);
    }
    return o;
  }

  OpOutcome viewport(Vp kind, std::size_t d, std::size_t w, std::uint64_t opId,
                     TraceBuffer* tb) {
    const bb::svc::ViewportRequest& req = vpReqs_[static_cast<std::size_t>(kind)][d][w];
    const Layer layer = kind == Vp::Svg ? Layer::SvcViewportSvg
                        : req.hierarchical ? Layer::SvcViewportHier
                                           : Layer::SvcViewport;
    bb::svc::EmitResponse r;
    const auto latency = timedOp(tb, opId, [&] {
      const Span s(tb, layer);
      r = service_->viewport(req);
    });
    const std::string key = viewportKey(kHotSet[d], kind, w);
    if (!r.ok) reportFailure("viewport " + key + " failed: " + r.diags.toString());
    return {latency, r.ok && payloads_.matches(key, r.payload)};
  }

  OpOutcome openOne(const ColdVariant& v, std::uint64_t opId, TraceBuffer* tb,
                    bb::svc::ChipHandle* served = nullptr) {
    bb::svc::CompileResponse r;
    const auto latency = timedOp(tb, opId, [&] {
      Span s(tb, Layer::SvcCompileCold);
      r = service_->compile(v.req);
      if (r.cacheHit) s.relabel(Layer::SvcCompileHit);
    });
    if (served) *served = r.chip;
    return {latency, opened(v, r)};
  }

  /// The response carries the chip `v` describes.
  bool opened(const ColdVariant& v, const bb::svc::CompileResponse& r) const {
    const std::string key = statsKey(v.design, v.prototype);
    if (!r.ok()) reportFailure("open of " + key + " failed: " + r.diags.toString());
    return r.ok() && stats_.matches(key, r.chip->statsText());
  }

  OpOutcome openBatch(const std::vector<const ColdVariant*>& batch, std::uint64_t opId,
                      TraceBuffer* tb) {
    std::vector<bb::svc::CompileRequest> reqs;
    for (const ColdVariant* v : batch) reqs.push_back(v->req);
    std::vector<bb::svc::CompileResponse> rs;
    const auto latency = timedOp(tb, opId, [&] {
      const Span s(tb, Layer::SvcOpen);
      rs = service_->compileAll(std::move(reqs));
    });
    bool ok = rs.size() == batch.size();
    for (std::size_t k = 0; ok && k < rs.size(); ++k) ok = opened(*batch[k], rs[k]);
    return {latency, ok};
  }

  OpOutcome lint(std::size_t d, std::size_t set, std::uint64_t opId, TraceBuffer* tb) {
    const bb::svc::LintRequest req{hotReqs_[d], lintSets_[set]};
    bb::svc::LintResponse r;
    const auto latency = timedOp(tb, opId, [&] {
      const Span s(tb, Layer::SvcLint);
      r = service_->lint(req);
    });
    const std::string key = lintKey(kHotSet[d], set);
    if (!r.ok()) reportFailure("lint " + key + " failed: " + r.diags.toString());
    return {latency, r.ok() && payloads_.matches(key, r.report->toJson())};
  }

  WorkloadConfig cfg_;
  ExpectedTable stats_;
  ExpectedTable payloads_;
  std::unique_ptr<bb::svc::CompileService> service_;
  std::vector<bb::lint::LintOptions> lintSets_;
  std::vector<bb::svc::CompileRequest> hotReqs_;
  std::vector<ColdVariant> hotVariants_;  ///< re-open requests, checked like cold opens
  std::mutex hotMu_;  ///< guards hotChips_ and retiredMaterialized_
  std::vector<bb::svc::ChipHandle> hotChips_;
  std::uint64_t retiredMaterialized_ = 0;
  /// [viewport kind][hot design][window]
  std::array<std::vector<std::vector<bb::svc::ViewportRequest>>, 5> vpReqs_;
  std::vector<ColdVariant> cold_;
  std::vector<std::size_t> twinOrder_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::barrier<> twinBarrier_{2};
  bb::svc::ServiceStats before_;
  bb::svc::CacheStats cacheBefore_;
  std::uint64_t materializedBefore_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeServe(const WorkloadConfig& cfg) {
  return std::make_unique<Serve>(cfg);
}

void recordServe(const std::string& dataDir) {
  bb::svc::CompileService service(serviceOptions());
  const std::vector<bb::lint::LintOptions> sets = lintOptionSets();
  ExpectedTable t;
  for (const Design& d : kHotSet) {
    const bb::svc::CompileRequest req = bb::svc::CompileRequest::ofDesc(d.desc());
    const bb::svc::CompileResponse r = service.compile(req);
    if (!r.ok()) throw std::runtime_error("serve: cannot compile " + d.id());
    const std::vector<bb::geom::Rect> windows = windowGrid(r.chip->flatTop().bbox());
    for (std::size_t k = 0; k < kVpNames.size(); ++k) {
      for (std::size_t w = 0; w < windows.size(); ++w) {
        const bb::svc::EmitResponse e =
            service.viewport(viewportRequest(d, static_cast<Vp>(k), windows[w]));
        if (!e.ok) throw std::runtime_error("serve: viewport failed on " + d.id());
        t.record(viewportKey(d, static_cast<Vp>(k), w), e.payload);
      }
    }
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const bb::svc::LintResponse l = service.lint({req, sets[s]});
      if (!l.ok()) throw std::runtime_error("serve: lint failed on " + d.id());
      t.record(lintKey(d, s), l.report->toJson());
    }
  }
  t.save(dataDir + "/serve.txt");
}

}  // namespace pb
