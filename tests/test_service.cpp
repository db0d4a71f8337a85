/// Tests for the compile service subsystem: the `core::Digest` /
/// fingerprint utilities and their canonical-toString hashing contract,
/// `svc::ChipCache` LRU/byte-budget/accounting behaviour,
/// `CompileSession` incremental recompilation (stage memoization,
/// `invalidateFrom`, option/description edits re-running only dirty
/// stages, bit-identical results), the thread-safe emitter registry, and
/// the `svc::CompileService` request path (content-addressed caching,
/// single-flight dedup, option-fingerprint sensitivity, and viewport
/// serving that never re-runs a compile stage on a warm cache), and the
/// chip's lazily built derived artifacts: the core netlist shared by
/// concurrent emits, the flattens and hierarchical index built once
/// under concurrent first calls, emitters, lint and DRC racing on a fresh
/// chip's layer indexes, and the fixed per-shape cache charge.

#include "cell/hier_index.hpp"
#include "core/digest.hpp"
#include "core/fingerprint.hpp"
#include "core/samples.hpp"
#include "core/session.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "icl/builder.hpp"
#include "layout/cif.hpp"
#include "lint/lint.hpp"
#include "netlist/spice.hpp"
#include "reps/emitter.hpp"
#include "svc/cache.hpp"
#include "svc/service.hpp"
#include "tech/rules.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <sstream>
#include <thread>

namespace bb {
namespace {

using core::CompileOptions;
using core::Digest;
using core::Stage;

std::string cifOf(const core::CompiledChip& chip) {
  std::ostringstream os;
  EXPECT_TRUE(reps::EmitterRegistry::global().emit(chip, "cif", os));
  return os.str();
}

// ---------------------------------------------------------------- digest

TEST(Digest, DeterministicAndSeparating) {
  EXPECT_EQ(Digest::of("hello"), Digest::of("hello"));
  EXPECT_NE(Digest::of("hello"), Digest::of("hellp"));
  EXPECT_NE(Digest::of(""), Digest::of("a"));
  // Length-delimited strings: ("ab","c") must not collide with ("a","bc").
  EXPECT_NE(Digest{}.update("ab").update("c").value(),
            Digest{}.update("a").update("bc").value());
}

TEST(Digest, TypedUpdates) {
  EXPECT_EQ(Digest{}.update(42).value(), Digest{}.update(42).value());
  EXPECT_NE(Digest{}.update(42).value(), Digest{}.update(43).value());
  EXPECT_NE(Digest{}.update(true).value(), Digest{}.update(false).value());
  EXPECT_NE(Digest{}.update(1.0).value(), Digest{}.update(1.0000000001).value());
  EXPECT_EQ(Digest{}.update(2.5).value(), Digest{}.update(2.5).value());
}

TEST(Digest, HexIs16LowercaseDigits) {
  const std::string h = Digest{}.update("chip").hex();
  EXPECT_EQ(h.size(), 16u);
  for (const char c : h) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << h;
  }
}

// ----------------------------------------------- canonical hashing contract

TEST(Fingerprint, CanonicalToStringIgnoresConstructionOrder) {
  using namespace bb::icl;
  // Same design, vars and params added in opposite orders.
  const ChipDesc a = ChipBuilder("canon")
                         .var("ALPHA", true)
                         .var("BETA", false)
                         .microcode(4, {field("op", 0, 3)})
                         .dataWidth(4)
                         .buses({"A", "B"})
                         .element("register", "R0",
                                  {{"in", sym("A")}, {"out", sym("B")},
                                   {"load", expr("op==1")}, {"drive", expr("op==2")}})
                         .buildOrDie();
  const ChipDesc b = ChipBuilder("canon")
                         .var("BETA", false)
                         .var("ALPHA", true)
                         .microcode(4, {field("op", 0, 3)})
                         .dataWidth(4)
                         .buses({"A", "B"})
                         .element("register", "R0",
                                  {{"drive", expr("op==2")}, {"load", expr("op==1")},
                                   {"out", sym("B")}, {"in", sym("A")}})
                         .buildOrDie();
  EXPECT_EQ(a.toString(), b.toString());
  EXPECT_EQ(Digest::of(a.toString()), Digest::of(b.toString()));
  EXPECT_EQ(core::requestDigest(a, {}), core::requestDigest(b, {}));
}

TEST(Fingerprint, OptionsSensitivity) {
  const CompileOptions base;
  EXPECT_EQ(core::optionsFingerprint(base), core::optionsFingerprint(CompileOptions{}));

  const CompileOptions withVar = CompileOptions::builder().var("PROTOTYPE", true).build();
  const CompileOptions noRoto = CompileOptions::builder().rotoRouter(false).build();
  const CompileOptions noOpt = CompileOptions::builder().optimizeDecoder(false).build();
  const CompileOptions rail = CompileOptions::builder().railCapacityUaPerLambda(500).build();
  EXPECT_NE(core::optionsFingerprint(base), core::optionsFingerprint(withVar));
  EXPECT_NE(core::optionsFingerprint(base), core::optionsFingerprint(noRoto));
  EXPECT_NE(core::optionsFingerprint(base), core::optionsFingerprint(noOpt));
  EXPECT_NE(core::optionsFingerprint(base), core::optionsFingerprint(rail));
}

TEST(Fingerprint, StageFingerprintsIsolateTheirInputs) {
  const CompileOptions base;
  const CompileOptions noRoto = CompileOptions::builder().rotoRouter(false).build();
  // A pass3-only edit fingerprints differently for pass3 and identically
  // for every earlier stage.
  EXPECT_EQ(core::stageOptionsFingerprint(Stage::Vote, base),
            core::stageOptionsFingerprint(Stage::Vote, noRoto));
  EXPECT_EQ(core::stageOptionsFingerprint(Stage::Pass1, base),
            core::stageOptionsFingerprint(Stage::Pass1, noRoto));
  EXPECT_EQ(core::stageOptionsFingerprint(Stage::Pass2, base),
            core::stageOptionsFingerprint(Stage::Pass2, noRoto));
  EXPECT_NE(core::stageOptionsFingerprint(Stage::Pass3, base),
            core::stageOptionsFingerprint(Stage::Pass3, noRoto));
  // Stages with no option inputs must still differ from each other.
  EXPECT_NE(core::stageOptionsFingerprint(Stage::Parse, base),
            core::stageOptionsFingerprint(Stage::Finalize, base));
}

TEST(Fingerprint, RequestDigestSeparatesDesignAndOptions) {
  const icl::ChipDesc small = core::samples::smallChip(4);
  const icl::ChipDesc wide = core::samples::smallChip(8);
  const CompileOptions noRoto = CompileOptions::builder().rotoRouter(false).build();
  EXPECT_EQ(core::requestDigest(small, {}), core::requestDigest(small, {}));
  EXPECT_NE(core::requestDigest(small, {}), core::requestDigest(wide, {}));
  EXPECT_NE(core::requestDigest(small, {}), core::requestDigest(small, noRoto));
}

// ----------------------------------------------------------------- cache

svc::ChipHandle dummyChip() { return std::make_shared<core::CompiledChip>(); }

TEST(ChipCache, HitMissAccountingAndLruEviction) {
  svc::ChipCache cache(1000);
  EXPECT_EQ(cache.find(1), nullptr);  // miss on empty

  cache.insert(1, dummyChip(), 400);
  cache.insert(2, dummyChip(), 400);
  EXPECT_EQ(cache.bytes(), 800u);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_NE(cache.find(2), nullptr);

  // Over budget: the least-recently-used entry (key 1 — key 2 was
  // touched last... both touched; order is 2 most-recent after find(2))
  cache.insert(3, dummyChip(), 400);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 800u);
  EXPECT_EQ(cache.find(1), nullptr);  // evicted: coldest
  EXPECT_NE(cache.find(2), nullptr);
  EXPECT_NE(cache.find(3), nullptr);

  // Touch 2 so 3 becomes coldest; the next insert evicts 3, not 2.
  EXPECT_NE(cache.find(2), nullptr);
  cache.insert(4, dummyChip(), 400);
  EXPECT_EQ(cache.find(3), nullptr);
  EXPECT_NE(cache.find(2), nullptr);
  EXPECT_NE(cache.find(4), nullptr);

  const svc::CacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 4u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 800u);
  EXPECT_EQ(s.budgetBytes, 1000u);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  EXPECT_GT(s.hitRate(), 0.0);
  EXPECT_LT(s.hitRate(), 1.0);
}

TEST(ChipCache, OversizeEntryIsRefusedNotDestructive) {
  svc::ChipCache cache(1000);
  cache.insert(1, dummyChip(), 600);
  cache.insert(2, dummyChip(), 2000);  // alone exceeds the budget
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(1), nullptr);  // survivor untouched
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(cache.stats().rejectedOversize, 1u);
}

TEST(ChipCache, ReplacingAKeyKeepsByteAccountingRight) {
  svc::ChipCache cache(1000);
  cache.insert(7, dummyChip(), 300);
  cache.insert(7, dummyChip(), 500);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 500u);
}

TEST(ChipCache, ZeroBudgetDisablesCaching) {
  svc::ChipCache cache(0);
  cache.insert(1, dummyChip(), 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(1), nullptr);
}

TEST(ChipCache, DefaultChargeUsesApproxBytes) {
  const icl::ChipDesc desc = core::samples::smallChip(4);
  auto compiled = core::compileChip(desc, {});
  ASSERT_TRUE(compiled);
  svc::ChipHandle chip(std::move(*compiled));
  const std::size_t approx = chip->approxBytes();
  EXPECT_GT(approx, sizeof(core::CompiledChip));

  svc::ChipCache cache(approx * 2);
  cache.insert(1, chip);
  EXPECT_EQ(cache.bytes(), approx);
}

// ------------------------------------------------- incremental compilation

TEST(IncrementalSession, Pass3EditRerunsOnlyPass3AndFinalize) {
  const icl::ChipDesc desc = core::samples::smallChip(4);
  core::CompileSession session(desc, {});
  session.setIncremental(true);
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  for (const Stage s : core::kAllStages) EXPECT_EQ(session.executionCount(s), 1u);
  const std::string before = cifOf(*session.chip());

  const CompileOptions edited = CompileOptions::builder().rotoRouter(false).build();
  const auto restarted = session.setOptions(edited);
  ASSERT_TRUE(restarted.has_value());
  EXPECT_EQ(*restarted, Stage::Pass3);
  ASSERT_TRUE(session.runTo(Stage::Finalize));

  EXPECT_EQ(session.executionCount(Stage::Parse), 1u);
  EXPECT_EQ(session.executionCount(Stage::Vote), 1u);
  EXPECT_EQ(session.executionCount(Stage::Pass1), 1u);
  EXPECT_EQ(session.executionCount(Stage::Pass2), 1u);
  EXPECT_EQ(session.executionCount(Stage::Pass3), 2u);
  EXPECT_EQ(session.executionCount(Stage::Finalize), 2u);

  // The memoized rerun is bit-identical to a fresh full compile.
  auto fresh = core::compileChip(desc, edited);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(cifOf(*session.chip()), cifOf(**fresh));
  EXPECT_NE(cifOf(*session.chip()), before);  // the edit really changed the mask
}

TEST(IncrementalSession, Pass2EditRerunsFromPass2) {
  const icl::ChipDesc desc = core::samples::smallChip(4);
  core::CompileSession session(desc, {});
  session.setIncremental(true);
  ASSERT_TRUE(session.runTo(Stage::Finalize));

  const CompileOptions edited = CompileOptions::builder().optimizeDecoder(false).build();
  const auto restarted = session.setOptions(edited);
  ASSERT_TRUE(restarted.has_value());
  EXPECT_EQ(*restarted, Stage::Pass2);
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  EXPECT_EQ(session.executionCount(Stage::Pass1), 1u);
  EXPECT_EQ(session.executionCount(Stage::Pass2), 2u);
  EXPECT_EQ(session.executionCount(Stage::Pass3), 2u);

  auto fresh = core::compileChip(desc, edited);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(cifOf(*session.chip()), cifOf(**fresh));
}

TEST(IncrementalSession, VarEditRerunsFromVote) {
  const icl::ChipDesc desc = core::samples::largeChip(8, 4);
  core::CompileSession session(desc, {});
  session.setIncremental(true);
  ASSERT_TRUE(session.runTo(Stage::Finalize));

  const CompileOptions edited = CompileOptions::builder().var("PROTOTYPE", true).build();
  const auto restarted = session.setOptions(edited);
  ASSERT_TRUE(restarted.has_value());
  EXPECT_EQ(*restarted, Stage::Vote);
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  EXPECT_EQ(session.executionCount(Stage::Parse), 1u);
  EXPECT_EQ(session.executionCount(Stage::Vote), 2u);
  EXPECT_EQ(session.executionCount(Stage::Pass1), 2u);

  auto fresh = core::compileChip(desc, edited);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(cifOf(*session.chip()), cifOf(**fresh));
}

TEST(IncrementalSession, UnchangedOptionsAreANoOp) {
  core::CompileSession session(core::samples::smallChip(4), {});
  session.setIncremental(true);
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  EXPECT_FALSE(session.setOptions(CompileOptions{}).has_value());
  EXPECT_TRUE(session.finished());
  for (const Stage s : core::kAllStages) EXPECT_EQ(session.executionCount(s), 1u);
}

TEST(IncrementalSession, DescriptionEditRerunsFromParse) {
  core::CompileSession session(core::samples::smallChip(4), {});
  session.setIncremental(true);
  ASSERT_TRUE(session.runTo(Stage::Finalize));

  // Identical (canonically equal) description: every memo stays valid.
  EXPECT_FALSE(session.setDescription(core::samples::smallChip(4)).has_value());
  EXPECT_TRUE(session.finished());

  const icl::ChipDesc wider = core::samples::smallChip(8);
  const auto restarted = session.setDescription(wider);
  ASSERT_TRUE(restarted.has_value());
  EXPECT_EQ(*restarted, Stage::Parse);  // the replacement is validated there
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  EXPECT_EQ(session.executionCount(Stage::Parse), 2u);
  EXPECT_EQ(session.executionCount(Stage::Vote), 2u);

  auto fresh = core::compileChip(wider, {});
  ASSERT_TRUE(fresh);
  EXPECT_EQ(cifOf(*session.chip()), cifOf(**fresh));
}

TEST(IncrementalSession, WithoutMemoizationInvalidateDegradesToPass1) {
  core::CompileSession session(core::samples::smallChip(4), {});
  // memoization off: no pass1/pass2 checkpoints exist
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  EXPECT_EQ(session.invalidateFrom(Stage::Pass3), Stage::Pass1);
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  EXPECT_EQ(session.executionCount(Stage::Vote), 1u);  // vote output memoized
  EXPECT_EQ(session.executionCount(Stage::Pass1), 2u);

  auto fresh = core::compileChip(core::samples::smallChip(4), {});
  ASSERT_TRUE(fresh);
  EXPECT_EQ(cifOf(*session.chip()), cifOf(**fresh));
}

TEST(IncrementalSession, SourceSessionsSupportIncrementalEdits) {
  const icl::ChipDesc desc = core::samples::smallChip(4);
  core::CompileSession session(desc.toString(), CompileOptions{});
  session.setIncremental(true);
  ASSERT_TRUE(session.runTo(Stage::Finalize));

  const CompileOptions edited = CompileOptions::builder().rotoRouter(false).build();
  ASSERT_TRUE(session.setOptions(edited).has_value());
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  EXPECT_EQ(session.executionCount(Stage::Parse), 1u);  // never re-parsed

  auto fresh = core::compileChip(desc, edited);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(cifOf(*session.chip()), cifOf(**fresh));
}

TEST(IncrementalSession, OptionsEditBeforeRunningChangesNothing) {
  core::CompileSession session(core::samples::smallChip(4), {});
  session.setIncremental(true);
  const CompileOptions edited = CompileOptions::builder().rotoRouter(false).build();
  EXPECT_FALSE(session.setOptions(edited).has_value());  // nothing ran yet
  ASSERT_TRUE(session.runTo(Stage::Finalize));
  for (const Stage s : core::kAllStages) EXPECT_EQ(session.executionCount(s), 1u);

  auto fresh = core::compileChip(core::samples::smallChip(4), edited);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(cifOf(*session.chip()), cifOf(**fresh));
}

// --------------------------------------------------- emitter registry MT

class NoopEmitter final : public reps::Emitter {
 public:
  explicit NoopEmitter(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] std::string_view fileExtension() const noexcept override { return "txt"; }
  [[nodiscard]] std::string_view description() const noexcept override { return "noop"; }
  void emit(const core::CompiledChip&, geom::TextBuffer& out,
            const reps::EmitterOptions&) const override {
    out << "noop";
  }

 private:
  std::string name_;
};

TEST(EmitterRegistryThreaded, ConcurrentReadersWhileRegistering) {
  reps::EmitterRegistry reg;
  reps::registerBuiltinEmitters(reg);
  constexpr int kCustom = 64;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> lookups{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_NE(reg.find("cif"), nullptr);
        EXPECT_GE(reg.names().size(), 11u);
        EXPECT_GE(reg.size(), 11u);
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Register only once a reader is reading, so the two overlap even when
  // the readers start late on a loaded machine.
  while (lookups.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  for (int i = 0; i < kCustom; ++i) {
    reg.add(std::make_unique<NoopEmitter>("custom" + std::to_string(i)));
    std::this_thread::yield();
  }
  stop = true;
  for (std::thread& t : readers) t.join();

  EXPECT_GT(lookups.load(), 0u);
  for (int i = 0; i < kCustom; ++i) {
    EXPECT_NE(reg.find("custom" + std::to_string(i)), nullptr);
  }
}

// ---------------------------------------------------------------- service

TEST(CompileService, WarmRequestsHitTheCache) {
  svc::CompileService service;
  const auto req = svc::CompileRequest::ofDesc(core::samples::smallChip(4));

  const svc::CompileResponse cold = service.compile(req);
  ASSERT_TRUE(cold.ok()) << cold.diags.toString();
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_NE(cold.key, 0u);

  const svc::CompileResponse warm = service.compile(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.key, cold.key);
  EXPECT_EQ(warm.chip.get(), cold.chip.get());  // the same immutable chip

  const svc::ServiceStats s = service.stats();
  EXPECT_EQ(s.compileRequests, 2u);
  EXPECT_EQ(s.compilesExecuted, 1u);
  EXPECT_EQ(s.cacheHits, 1u);
  EXPECT_EQ(s.cacheMisses, 1u);
}

TEST(CompileService, OptionFingerprintMakesDifferentOptionsMiss) {
  svc::CompileService service;
  const icl::ChipDesc desc = core::samples::smallChip(4);
  const auto a = service.compile(svc::CompileRequest::ofDesc(desc));
  const auto b = service.compile(svc::CompileRequest::ofDesc(
      desc, CompileOptions::builder().rotoRouter(false).build()));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.key, b.key);
  EXPECT_FALSE(b.cacheHit);
  EXPECT_EQ(service.stats().compilesExecuted, 2u);
}

TEST(CompileService, SourceAndTypedRequestsShareOneEntry) {
  svc::CompileService service;
  const icl::ChipDesc desc = core::samples::smallChip(4);
  const auto typed = service.compile(svc::CompileRequest::ofDesc(desc));
  ASSERT_TRUE(typed.ok());
  const auto text =
      service.compile(svc::CompileRequest::ofSource("small", desc.toString()));
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(text.cacheHit);
  EXPECT_EQ(text.key, typed.key);
  EXPECT_EQ(service.stats().compilesExecuted, 1u);
}

TEST(CompileService, ParseFailureCarriesDiagnostics) {
  svc::CompileService service;
  const auto resp = service.compile(svc::CompileRequest::ofSource("bad", "chip {{{"));
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.diags.hasErrors());
  EXPECT_EQ(resp.key, 0u);
  EXPECT_EQ(service.stats().failures, 1u);
  EXPECT_FALSE(service.keyFor(svc::CompileRequest::ofSource("bad", "chip {{{")).has_value());
}

TEST(CompileService, ConcurrentDuplicatesAreSingleFlighted) {
  svc::CompileService service;
  std::vector<svc::CompileRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    reqs.push_back(svc::CompileRequest::ofDesc(core::samples::smallChip(4)));
  }
  const auto responses = service.compileAll(std::move(reqs));
  ASSERT_EQ(responses.size(), 16u);
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok()) << r.diags.toString();
    EXPECT_EQ(r.chip.get(), responses.front().chip.get());
  }
  // One compile total: everyone else hit the cache or waited on the twin.
  const svc::ServiceStats s = service.stats();
  EXPECT_EQ(s.compilesExecuted, 1u);
  EXPECT_EQ(s.cacheHits + s.dedupedInFlight + s.compilesExecuted, 16u + s.dedupedInFlight);
}

TEST(CompileService, MixedBatchCompilesEachUniqueDesignOnce) {
  svc::CompileService service;
  std::vector<svc::CompileRequest> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(svc::CompileRequest::ofDesc(core::samples::smallChip(4)));
    reqs.push_back(svc::CompileRequest::ofDesc(core::samples::smallChip(8)));
  }
  const auto responses = service.compileAll(std::move(reqs));
  for (const auto& r : responses) ASSERT_TRUE(r.ok());
  EXPECT_EQ(service.stats().compilesExecuted, 2u);
}

TEST(CompileService, ViewportOnWarmCacheRunsZeroCompileStages) {
  svc::CompileService service;
  const auto req = svc::CompileRequest::ofDesc(core::samples::smallChip(4));
  const auto cold = service.compile(req);
  ASSERT_TRUE(cold.ok());

  // Full emission for reference (also a cache hit — chip already compiled).
  const svc::EmitResponse full = service.emit(req, "cif");
  ASSERT_TRUE(full.ok);
  EXPECT_TRUE(full.cacheHit);

  const geom::Rect bb = cold.chip->flatTop().bbox();
  svc::ViewportRequest vp;
  vp.chip = req;
  vp.window = geom::Rect{bb.x0, bb.y0, bb.x0 + bb.width() / 4, bb.y0 + bb.height() / 4};
  vp.tileSize = geom::lambda(200);
  const std::uint64_t compilesBefore = service.stats().compilesExecuted;
  const svc::EmitResponse tile = service.viewport(vp);
  ASSERT_TRUE(tile.ok) << tile.diags.toString();
  EXPECT_TRUE(tile.cacheHit);
  EXPECT_EQ(service.stats().compilesExecuted, compilesBefore);  // zero stages ran
  EXPECT_LT(tile.payload.size(), full.payload.size());  // output-sensitive
  EXPECT_NE(tile.payload.find("DS"), std::string::npos);  // real CIF

  const svc::ServiceStats s = service.stats();
  EXPECT_EQ(s.viewportRequests, 1u);
  EXPECT_EQ(s.emitRequests, 1u);  // viewport is not double-counted as emit
}

TEST(CompileService, WholeArtworkViewportMatchesPlainEmission) {
  svc::CompileService service;
  const auto req = svc::CompileRequest::ofDesc(core::samples::smallChip(4));
  const svc::EmitResponse full = service.emit(req, "cif");
  ASSERT_TRUE(full.ok);

  svc::ViewportRequest vp;
  vp.chip = req;  // window unset: whole artwork, single tile
  const svc::EmitResponse whole = service.viewport(vp);
  ASSERT_TRUE(whole.ok);
  EXPECT_EQ(whole.payload, full.payload);
}

TEST(CompileService, UnknownFormatIsDiagnosedNotFatal) {
  svc::CompileService service;
  const auto resp =
      service.emit(svc::CompileRequest::ofDesc(core::samples::smallChip(4)), "nope");
  EXPECT_FALSE(resp.ok);
  EXPECT_TRUE(resp.diags.hasErrors());
}

TEST(CompileService, EvictionKeepsServingCorrectChips) {
  // A budget that holds either design but not both: the second design
  // evicts the first, and re-requesting the first recompiles it
  // correctly. The service charges a chip exactly what a bare compile's
  // `approxBytes` says, so the probes size the budget.
  const icl::ChipDesc a = core::samples::smallChip(4);
  const icl::ChipDesc b = core::samples::smallChip(8);
  auto probeA = core::compileChip(a, {});
  auto probeB = core::compileChip(b, {});
  ASSERT_TRUE(probeA && probeB);
  svc::ServiceOptions opts;
  opts.cacheBudgetBytes = (*probeA)->approxBytes() + (*probeB)->approxBytes() - 1;
  svc::CompileService service(opts);

  ASSERT_TRUE(service.compile(svc::CompileRequest::ofDesc(a)).ok());
  ASSERT_TRUE(service.compile(svc::CompileRequest::ofDesc(b)).ok());
  const auto again = service.compile(svc::CompileRequest::ofDesc(a));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.cacheHit);
  EXPECT_GE(service.cache().stats().evictions, 1u);
  EXPECT_EQ(service.cache().stats().rejectedOversize, 0u);
  EXPECT_EQ(service.stats().compilesExecuted, 3u);
  // The served mask is the right one.
  auto fresh = core::compileChip(a, {});
  ASSERT_TRUE(fresh);
  EXPECT_EQ(cifOf(*again.chip), cifOf(**fresh));
}

TEST(CompileService, CompileAllOutlivesTwinsRetiredOnAnotherThread) {
  // Two callers batch the same design with caching off, so requests keep
  // finding their key in flight on the other caller. Nothing of one
  // caller's batch may be touched by the other caller's thread once its
  // compileAll returns: a scheduler that retired a waiting request on
  // the claimant's thread once touched the returned batch, a stack use
  // after return that ASan reports when both callers share one CPU.
  svc::ServiceOptions opts;
  opts.cacheBudgetBytes = 0;
  svc::CompileService service(opts);
  const icl::ChipDesc desc = core::samples::smallChip(4);
  constexpr int kRounds = 200;
  std::atomic<int> failed{0};
  const auto client = [&] {
    for (int r = 0; r < kRounds; ++r) {
      std::vector<svc::CompileRequest> reqs(2, svc::CompileRequest::ofDesc(desc));
      for (const svc::CompileResponse& resp : service.compileAll(std::move(reqs))) {
        if (!resp.ok()) failed.fetch_add(1);
      }
    }
  };
  std::thread other(client);
  client();
  other.join();
  EXPECT_EQ(failed.load(), 0);
  const svc::ServiceStats s = service.stats();
  EXPECT_EQ(s.compileRequests, 4u * kRounds);
  EXPECT_EQ(s.failures, 0u);
  EXPECT_GT(s.dedupedInFlight, 0u);  // requests really waited on twins
}

TEST(CompileService, CompileAllTwinsShareOneCompileWithCachingOff) {
  // With no cache to re-check, same-batch twins still get their
  // claimant's chip: one compile, and each twin is counted once as
  // deduped and once as a hit.
  svc::ServiceOptions opts;
  opts.cacheBudgetBytes = 0;
  svc::CompileService service(opts);
  std::vector<svc::CompileRequest> reqs(8,
                                        svc::CompileRequest::ofDesc(core::samples::smallChip(4)));
  const auto responses = service.compileAll(std::move(reqs));
  ASSERT_EQ(responses.size(), 8u);
  int twins = 0;
  for (const svc::CompileResponse& r : responses) {
    ASSERT_TRUE(r.ok()) << r.diags.toString();
    EXPECT_EQ(r.chip.get(), responses.front().chip.get());
    EXPECT_EQ(r.deduped, r.cacheHit);
    if (r.deduped) ++twins;
  }
  EXPECT_FALSE(responses.front().deduped);  // the claimant compiled it
  EXPECT_EQ(twins, 7);
  const svc::ServiceStats s = service.stats();
  EXPECT_EQ(s.compilesExecuted, 1u);
  EXPECT_EQ(s.cacheMisses, 1u);
  EXPECT_EQ(s.dedupedInFlight, 7u);
  EXPECT_EQ(s.cacheHits, 7u);
}

TEST(CompileService, CompileAllTwinOfAFailedCompileRetriesIt) {
  // Parses, then fails in the vote stage (unknown conditional variable).
  const std::string src = R"(chip bad;
microcode width 4 { field op [0:3]; }
data width 4;
buses A;
core {
  inport IN (bus = A, drive = "op==1");
  if UNDEFINED_VAR { probe P (bus = A, bit = 0); }
  outport OUT (bus = A, sample = "op==2");
}
)";
  svc::CompileService service;
  std::vector<svc::CompileRequest> reqs(2, svc::CompileRequest::ofSource("bad", src));
  const auto responses = service.compileAll(std::move(reqs));
  ASSERT_EQ(responses.size(), 2u);
  for (const svc::CompileResponse& r : responses) {
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.key, 0u);  // keyed: the failure is the compile's, not the parse's
    EXPECT_TRUE(r.diags.hasErrors()) << r.diags.toString();
  }
  // The twin does not inherit the failure: it retries, and fails itself.
  const svc::ServiceStats s = service.stats();
  EXPECT_EQ(s.compilesExecuted, 2u);
  EXPECT_EQ(s.failures, 2u);
}

TEST(CompileService, CompileAllWithPooledLintNeverDeadlocks) {
  // Two callers batch the same two designs with caching off, and every
  // compile runs lint at full pool width. A claimant's nested lint loop
  // help-runs whatever the pool queue holds, so a queued task that
  // waited on a claim could end up under the very claimant it waits for.
  svc::ServiceOptions opts;
  opts.cacheBudgetBytes = 0;
  svc::CompileService service(opts);
  CompileOptions copts;
  copts.lint.enabled = true;
  copts.lint.threads = 0;
  const std::array<icl::ChipDesc, 2> designs{core::samples::smallChip(4),
                                             core::samples::segmentedChip(4)};
  constexpr int kRounds = 50;
  std::atomic<int> failed{0};
  const auto client = [&] {
    for (int r = 0; r < kRounds; ++r) {
      std::vector<svc::CompileRequest> reqs;
      for (const icl::ChipDesc& d : designs) {
        reqs.push_back(svc::CompileRequest::ofDesc(d, copts));
      }
      for (const svc::CompileResponse& resp : service.compileAll(std::move(reqs))) {
        if (!resp.ok()) failed.fetch_add(1);
      }
    }
  };
  std::thread other(client);
  client();
  other.join();
  EXPECT_EQ(failed.load(), 0);
  const svc::ServiceStats s = service.stats();
  EXPECT_EQ(s.compileRequests, 4u * kRounds);
  EXPECT_EQ(s.failures, 0u);
}

// ------------------------------------------- approxBytes cache charging

/// The bytes the derived artifacts hold once `flatTop`, `flatCore` and
/// `hierTop` with every layer index and `coreNetlist` are all built.
std::size_t builtDerivedBytes(const core::CompiledChip& chip) {
  std::size_t b = 0;
  for (const cell::FlatLayout* f : {&chip.flatTop(), &chip.flatCore()}) {
    f->buildIndexes();
    b += sizeof(cell::FlatLayout) + f->approxBytes();
  }
  const cell::HierIndex& hier = chip.hierTop();
  hier.residual().buildIndexes();
  for (const cell::HierUnit& u : hier.units()) u.flat.buildIndexes();
  b += sizeof(cell::HierIndex) + hier.approxBytes();
  // Devices, nets, and one by-name map node per named net.
  const netlist::TransistorNetlist& nl = chip.coreNetlist();
  b += sizeof(netlist::TransistorNetlist) +
       nl.transistors().size() * sizeof(netlist::Transistor);
  for (const netlist::Net& n : nl.nets()) {
    b += sizeof(netlist::Net) + n.name.size();
    if (n.isNamed) b += sizeof(std::pair<const std::string, int>) + 32 + n.name.size();
  }
  return b;
}

TEST(ChipCacheCharge, ChargeCoversEveryBuiltArtifactAndNeverGrows) {
  // approxBytes charges the derived artwork up front, per flattened
  // shape, so the cache can charge a chip at insertion for everything a
  // request can later build. The charge must not move when the artifacts
  // are built, must cover what they then hold, and must not overshoot it
  // by more than a quarter.
  const std::vector<icl::ChipDesc> designs = {
      core::samples::smallChip(4),      core::samples::smallChip(8),
      core::samples::smallChip(16),     core::samples::segmentedChip(8),
      core::samples::segmentedChip(16), core::samples::prototypeChip(),
      core::samples::largeChip(8, 4),   core::samples::largeChip(16, 8),
      core::samples::largeChip(32, 8),  core::samples::largeChip(32, 12),
      core::samples::largeChip(64, 16)};
  for (const icl::ChipDesc& desc : designs) {
    SCOPED_TRACE(desc.name + " " + std::to_string(desc.dataWidth));
    auto compiled = core::compileChip(desc);
    ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
    const core::CompiledChip& chip = **compiled;
    const std::size_t charge = chip.approxBytes();
    const std::size_t derivedCharge =
        chip.stats.shapeCount * core::CompiledChip::kDerivedBytesPerShape;
    ASSERT_GT(charge, derivedCharge);
    const std::size_t library = charge - derivedCharge;

    const std::size_t built = library + builtDerivedBytes(chip);
    EXPECT_EQ(chip.approxBytes(), charge);
    EXPECT_GE(charge, built);
    EXPECT_LE(charge, built + built / 4);
  }
}

// ------------------------------------------------- cached core netlist

/// The spice deck and transistor text a fresh `extractFlat` of the core
/// yields — what the emitters produced before the netlist was cached.
std::pair<std::string, std::string> freshCoreOutputs(const core::CompiledChip& chip) {
  const extract::ExtractResult ex =
      extract::extractFlat(cell::flatten(*chip.core), extract::labelsOf(*chip.core));
  netlist::SpiceOptions so;
  so.title = chip.desc.name + " extracted netlist";
  std::string text = "extracted from core artwork:\n";
  text += ex.netlist.toText();
  return {netlist::writeSpice(ex.netlist, so), std::move(text)};
}

TEST(CoreNetlist, SpiceAndTransistorsMatchAFreshExtraction) {
  for (const icl::ChipDesc& desc :
       {core::samples::smallChip(4), core::samples::largeChip(16, 8)}) {
    auto compiled = core::compileChip(desc);
    ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
    const core::CompiledChip& chip = **compiled;
    EXPECT_FALSE(chip.coreNetlistBuilt());  // a compile never builds it
    const auto [spice, transistors] = freshCoreOutputs(chip);
    const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
    EXPECT_EQ(reg.find("spice")->emitToString(chip), spice);
    EXPECT_TRUE(chip.coreNetlistBuilt());
    EXPECT_EQ(reg.find("transistors")->emitToString(chip), transistors);
    EXPECT_EQ(&chip.coreNetlist(), &chip.coreNetlist());  // one netlist, built once
  }
}

TEST(CoreNetlist, ChargedUpFrontAndNotCopiedByClone) {
  auto compiled = core::compileChip(core::samples::smallChip(4));
  ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
  const core::CompiledChip& chip = **compiled;
  const std::size_t before = chip.approxBytes();
  const netlist::TransistorNetlist& nl = chip.coreNetlist();
  ASSERT_FALSE(nl.transistors().empty());
  EXPECT_EQ(chip.approxBytes(), before);  // the per-shape charge covered it already

  const core::CompiledChip copy = chip.clone();
  EXPECT_FALSE(copy.coreNetlistBuilt());
  EXPECT_NE(&copy.coreNetlist(), &nl);  // rebuilt from the clone's own cells
  EXPECT_EQ(copy.coreNetlist().toText(), nl.toText());
}

TEST(CompileService, ConcurrentSpiceEmitsOnOneCachedChipAgree) {
  // Two clients ask for spice on the same warm chip at once: the first
  // builds the core netlist, the other waits for it.
  svc::CompileService service;
  const auto req = svc::CompileRequest::ofDesc(core::samples::largeChip(16, 8));
  const svc::CompileResponse warm = service.compile(req);
  ASSERT_TRUE(warm.ok()) << warm.diags.toString();
  ASSERT_FALSE(warm.chip->coreNetlistBuilt());

  std::array<svc::EmitResponse, 2> out;
  std::atomic<int> arrived{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < out.size(); ++t) {
    clients.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      out[t] = service.emit(req, "spice");
    });
  }
  for (std::thread& c : clients) c.join();

  for (const svc::EmitResponse& r : out) {
    ASSERT_TRUE(r.ok) << r.diags.toString();
    EXPECT_TRUE(r.cacheHit);
  }
  EXPECT_EQ(out[0].payload, out[1].payload);
  EXPECT_EQ(out[0].payload, freshCoreOutputs(*warm.chip).first);
  EXPECT_TRUE(warm.chip->coreNetlistBuilt());
  EXPECT_EQ(service.stats().compilesExecuted, 1u);
}

TEST(CompiledChip, ConcurrentFirstAccessBuildsEachArtifactOnce) {
  // A freshly compiled chip, nothing built yet: several threads make the
  // first flatTop/flatCore/hierTop calls at once, and every thread gets
  // the same object from each accessor.
  auto compiled = core::compileChip(core::samples::largeChip(16, 8));
  ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
  const core::CompiledChip& chip = **compiled;
  ASSERT_FALSE(chip.flatTopBuilt());
  ASSERT_FALSE(chip.hierTopBuilt());

  constexpr std::size_t kThreads = 4;
  struct Seen {
    const cell::FlatLayout* top = nullptr;
    const cell::FlatLayout* core = nullptr;
    const cell::HierIndex* hier = nullptr;
  };
  std::array<Seen, kThreads> seen{};
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      // Each thread starts with a different accessor, so first calls of
      // all three overlap.
      for (std::size_t k = 0; k < 3; ++k) {
        switch ((t + k) % 3) {
          case 0: seen[t].top = &chip.flatTop(); break;
          case 1: seen[t].core = &chip.flatCore(); break;
          default: seen[t].hier = &chip.hierTop(); break;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (const Seen& s : seen) {
    EXPECT_EQ(s.top, seen[0].top);
    EXPECT_EQ(s.core, seen[0].core);
    EXPECT_EQ(s.hier, seen[0].hier);
  }
  EXPECT_TRUE(chip.flatTopBuilt());
  EXPECT_TRUE(chip.hierTopBuilt());
  EXPECT_EQ(seen[0].top->totalCount(), chip.stats.shapeCount);
  EXPECT_EQ(seen[0].core->totalCount(), cell::flatten(*chip.core).totalCount());
  EXPECT_EQ(seen[0].hier->flatCount(), chip.stats.shapeCount);
}

TEST(CompiledChip, ConcurrentFirstEmitsLintAndDrcMatchASerialRun) {
  // Seven consumers start at once on a freshly compiled chip whose
  // artifacts and layer indexes are all unbuilt: spice and lint extract
  // flatCore(); a tiled sticks-svg walks its tiles over the pool, querying
  // flatCore()'s layer indexes, while a whole-artwork sticks-svg reads
  // the same layers in place; logic and simulation read the chip's one
  // logic model; DRC checks flatTop(). Lint and DRC fan out over the
  // pool at full width. Each output must equal a serial run's on a second
  // compile. Under TSan this is the race check on the lazily built layer
  // indexes, and on the logic model's read path (which must touch no
  // scratch state): nothing prepares the chip first.
  const icl::ChipDesc desc = core::samples::largeChip(16, 8);
  auto serialChip = core::compileChip(desc);
  ASSERT_TRUE(serialChip) << serialChip.diagnostics().toString();
  // Tiles a quarter of the core's width wide (the core is the same on
  // both compiles, so the raced chip's flatten is left unbuilt).
  reps::EmitterOptions tiled;
  tiled.tileSize = (*serialChip)->flatCore().bbox().width() / 4;
  ASSERT_GT(layout::View((*serialChip)->flatCore(), tiled).tileCount(), 4u);
  lint::LintOptions lintOpts;
  lintOpts.threads = 0;
  drc::DrcOptions drcOpts;
  drcOpts.threads = 0;
  const drc::DeckChecker checker(tech::meadConwayRules(), drcOpts);
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  constexpr std::size_t kJobs = 7;
  const auto job = [&](const core::CompiledChip& chip, std::size_t k) -> std::string {
    switch (k) {
      case 0: return reg.find("spice")->emitToString(chip);
      case 1: return reg.find("sticks-svg")->emitToString(chip, tiled);
      case 2: return lint::lintChip(chip, lintOpts).toJson();
      case 3: return reg.find("sticks-svg")->emitToString(chip);
      case 4: return reg.find("logic")->emitToString(chip);
      case 5: return reg.find("simulation")->emitToString(chip);
      default: {
        const drc::DrcReport rep = checker.check(chip.flatTop(), chip.top->boundary());
        std::string out = std::to_string(rep.violations.size()) + " violations\n";
        for (const drc::Violation& v : rep.violations) {
          out += v.rule + " " + geom::toString(v.where) + " " + v.message + "\n";
        }
        return out;
      }
    }
  };

  std::array<std::string, kJobs> serial;
  for (std::size_t k = 0; k < kJobs; ++k) serial[k] = job(**serialChip, k);

  auto compiled = core::compileChip(desc);
  ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
  const core::CompiledChip& chip = **compiled;
  ASSERT_FALSE(chip.flatTopBuilt());
  std::array<std::string, kJobs> concurrent;
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kJobs; ++k) {
    threads.emplace_back([&, k] {
      arrived.fetch_add(1);
      while (arrived.load() < kJobs) std::this_thread::yield();
      concurrent[k] = job(chip, k);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t k = 0; k < kJobs; ++k) {
    SCOPED_TRACE(k);
    EXPECT_FALSE(serial[k].empty());
    EXPECT_EQ(concurrent[k], serial[k]);
  }
}

TEST(CompileService, ColdCompileBuildsNothingAndChargesApproxBytes) {
  // The cache charges a chip at insertion for everything a request can
  // later build, so the service builds none of it.
  svc::CompileService service;
  const svc::CompileResponse resp =
      service.compile(svc::CompileRequest::ofDesc(core::samples::largeChip(16, 8)));
  ASSERT_TRUE(resp.ok()) << resp.diags.toString();
  EXPECT_FALSE(resp.cacheHit);
  EXPECT_FALSE(resp.chip->flatTopBuilt());
  EXPECT_FALSE(resp.chip->hierTopBuilt());
  EXPECT_FALSE(resp.chip->coreNetlistBuilt());
  EXPECT_EQ(service.cache().bytes(), resp.chip->approxBytes());
}

// ------------------------------------------------ hierarchical viewport

TEST(Service, HierarchicalViewportResolvesOnlyWindowInstances) {
  svc::CompileService service;
  const icl::ChipDesc desc = core::samples::smallChip(4);
  const auto first = service.compile(svc::CompileRequest::ofDesc(desc));
  ASSERT_TRUE(first.ok()) << first.diags.toString();
  // The chip entered the cache with nothing derived built; this first
  // read builds the hierarchical index (its layer indexes stay lazy).
  ASSERT_FALSE(first.chip->hierTopBuilt());
  const cell::HierIndex& hier = first.chip->hierTop();
  const std::uint64_t before = hier.instancesMaterialized();
  const std::size_t total = hier.placements().size();
  ASSERT_GT(total, 1u);

  const geom::Rect bb = hier.bbox();
  svc::ViewportRequest req;
  req.chip = svc::CompileRequest::ofDesc(desc);
  req.hierarchical = true;
  req.window = geom::Rect{bb.x0, bb.y0, bb.x0 + bb.width() / 8, bb.y0 + bb.height() / 8};
  const svc::ServiceStats statsBefore = service.stats();
  const auto resp = service.viewport(req);
  ASSERT_TRUE(resp.ok) << resp.diags.toString();
  EXPECT_TRUE(resp.cacheHit);
  // Warm-path contract: zero compile stages ran for the viewport.
  EXPECT_EQ(service.stats().compilesExecuted, statsBefore.compilesExecuted);

  // The lazy-resolution contract: only the placements whose world boxes
  // touch the corner window were materialized, not the whole chip.
  const std::uint64_t resolved = hier.instancesMaterialized() - before;
  EXPECT_GT(resolved, 0u);
  EXPECT_LT(resolved, total);
}

TEST(Service, WholeArtworkHierarchicalViewportIsTheSymbolCallMask) {
  svc::CompileService service;
  const icl::ChipDesc desc = core::samples::smallChip(4);
  const auto first = service.compile(svc::CompileRequest::ofDesc(desc));
  ASSERT_TRUE(first.ok()) << first.diags.toString();

  svc::ViewportRequest req;
  req.chip = svc::CompileRequest::ofDesc(desc);
  req.hierarchical = true;  // no window: the full symbol-call mask
  const auto resp = service.viewport(req);
  ASSERT_TRUE(resp.ok) << resp.diags.toString();
  EXPECT_EQ(resp.payload, layout::writeCif(*first.chip->top));

  // Symbol calls instead of flattened copies: smaller than the same
  // artwork streamed through the windowed (flattening) path. (The plain
  // whole-artwork viewport is already the hierarchical writer, so the
  // flat reference must force the windowed walk.)
  svc::ViewportRequest flatReq;
  flatReq.chip = svc::CompileRequest::ofDesc(desc);
  flatReq.window = first.chip->flatTop().bbox();
  const auto flatResp = service.viewport(flatReq);
  ASSERT_TRUE(flatResp.ok);
  EXPECT_LT(resp.payload.size(), flatResp.payload.size());
}

}  // namespace
}  // namespace bb
