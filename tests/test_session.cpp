/// Tests for the staged pipeline API: stage ordering and individual
/// runnability, observer invocations, error propagation when a stage
/// fails, finalize's shape count, the fluent options builder, the
/// emitter registry round-trip, the concurrent BatchCompiler, and the
/// one description validator that every compile door runs.

#include "core/batch.hpp"
#include "core/samples.hpp"
#include "core/session.hpp"
#include "icl/parser.hpp"
#include "reps/emitter.hpp"
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace bb {
namespace {

/// Records every observer callback in order.
class RecordingObserver : public core::PassObserver {
 public:
  void onStageBegin(core::Stage s, const core::CompileSession&) override {
    begins.push_back(s);
  }
  void onStageEnd(core::Stage s, const core::CompileSession&, bool ok,
                  std::chrono::nanoseconds) override {
    ends.push_back(s);
    results.push_back(ok);
  }

  std::vector<core::Stage> begins, ends;
  std::vector<bool> results;
};

TEST(Session, StagesRunInOrderOneAtATime) {
  core::CompileSession session(core::samples::smallChip(4));
  for (const core::Stage s : core::kAllStages) {
    EXPECT_FALSE(session.finished());
    EXPECT_EQ(session.nextStage(), s);
    ASSERT_TRUE(session.runNext()) << "stage " << stageName(s) << ": "
                                   << session.diagnostics().toString();
  }
  EXPECT_TRUE(session.finished());
  EXPECT_FALSE(session.failed());
  auto chip = session.takeChip();
  ASSERT_NE(chip, nullptr);
  EXPECT_GT(chip->stats.dieArea, 0);
  // Once finished, there is nothing more to run.
  EXPECT_FALSE(session.runNext());
  // And run() after the chip was surrendered must not claim success
  // with a null value.
  auto rerun = session.run();
  EXPECT_FALSE(rerun.hasValue());
  EXPECT_TRUE(rerun.diagnostics().hasErrors());
}

TEST(Session, ValueOrWorksForMoveOnlyResults) {
  auto good = core::compileChip(core::samples::smallChip(4)).valueOr(nullptr);
  ASSERT_NE(good, nullptr);
  EXPECT_GT(good->stats.dieArea, 0);
  auto bad = core::compileChip("chip broken; data width 8;").valueOr(nullptr);
  EXPECT_EQ(bad, nullptr);
}

TEST(Session, StopAfterPass1AndInspectPlacement) {
  core::CompileSession session(core::samples::smallChip(4));
  ASSERT_TRUE(session.runTo(core::Stage::Pass1)) << session.diagnostics().toString();
  EXPECT_EQ(session.nextStage(), core::Stage::Pass2);
  EXPECT_FALSE(session.finished());

  // The parse and vote results are inspectable...
  ASSERT_NE(session.description(), nullptr);
  EXPECT_EQ(session.description()->name, "small");
  EXPECT_FALSE(session.assembledElements().empty());

  // ...and the partial chip has a placed core but no control or pads yet.
  const core::CompiledChip* chip = session.chip();
  ASSERT_NE(chip, nullptr);
  EXPECT_NE(chip->core, nullptr);
  EXPECT_EQ(chip->placed.size(), 5u + 1u);  // 5 elements + head precharge
  EXPECT_EQ(chip->decoder, nullptr);
  EXPECT_TRUE(chip->pads.empty());

  // takeChip refuses to hand over an unfinished chip.
  EXPECT_EQ(session.takeChip(), nullptr);

  // The rest of the pipeline still completes from here.
  auto result = session.run();
  ASSERT_TRUE(result) << result.diagnostics().toString();
  EXPECT_NE((*result)->decoder, nullptr);
  EXPECT_FALSE((*result)->pads.empty());
}

TEST(Session, ObserverSeesEveryStageExactlyOnce) {
  core::CompileSession session(core::samples::smallChip(4));
  RecordingObserver rec;
  session.addObserver(&rec);
  ASSERT_TRUE(session.run().hasValue());

  const std::vector<core::Stage> expected(core::kAllStages.begin(),
                                          core::kAllStages.end());
  EXPECT_EQ(rec.begins, expected);
  EXPECT_EQ(rec.ends, expected);
  EXPECT_EQ(rec.results, std::vector<bool>(core::kAllStages.size(), true));
}

TEST(Session, ParseFailureStopsThePipeline) {
  core::CompileSession session("chip broken; data width 8;");
  RecordingObserver rec;
  session.addObserver(&rec);

  EXPECT_FALSE(session.runNext());
  EXPECT_TRUE(session.failed());
  EXPECT_TRUE(session.diagnostics().hasErrors());

  // Only the parse stage ran, and it reported failure.
  EXPECT_EQ(rec.ends, std::vector<core::Stage>{core::Stage::Parse});
  EXPECT_EQ(rec.results, std::vector<bool>{false});

  // A failed session refuses to run further stages.
  EXPECT_FALSE(session.runNext());
  EXPECT_FALSE(session.runTo(core::Stage::Finalize));
  EXPECT_EQ(rec.ends.size(), 1u);
  EXPECT_EQ(session.takeChip(), nullptr);
}

TEST(Session, MidPipelineFailurePropagatesThroughRun) {
  // An unknown conditional-assembly variable is diagnosed by the vote
  // stage — parse succeeds, vote fails, pass1..finalize never run.
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
  core::CompileSession session(src);
  RecordingObserver rec;
  session.addObserver(&rec);

  auto result = session.run();
  EXPECT_FALSE(result.hasValue());
  EXPECT_TRUE(result.diagnostics().hasErrors());
  const std::vector<core::Stage> expected{core::Stage::Parse, core::Stage::Vote};
  EXPECT_EQ(rec.ends, expected);
  EXPECT_EQ(rec.results, (std::vector<bool>{true, false}));
}

TEST(Session, FromParsedDescription) {
  icl::DiagnosticList diags;
  auto desc = icl::parseChip(core::samples::smallChipSource(4), diags);
  ASSERT_TRUE(desc.has_value()) << diags.toString();

  core::CompileSession session(*desc);
  auto result = session.run();
  ASSERT_TRUE(result) << result.diagnostics().toString();
  EXPECT_EQ((*result)->desc.name, "small");
}

TEST(Session, FinalizeCountsShapesWithoutFlattening) {
  const std::vector<icl::ChipDesc> samples = {
      core::samples::smallChip(4), core::samples::largeChip(16, 8),
      core::samples::prototypeChip(), core::samples::segmentedChip(8)};
  for (const icl::ChipDesc& desc : samples) {
    for (const bool proto : {false, true}) {
      SCOPED_TRACE(desc.name + (proto ? " PROTOTYPE" : ""));
      auto chip = core::compileChip(desc, core::CompileOptions::builder()
                                              .var("PROTOTYPE", proto)
                                              .build());
      ASSERT_TRUE(chip) << chip.diagnostics().toString();
      const core::CompiledChip& c = **chip;
      EXPECT_FALSE(c.flatTopBuilt());  // a compile builds no derived artwork
      EXPECT_FALSE(c.hierTopBuilt());
      EXPECT_EQ(c.stats.shapeCount, c.flatTop().totalCount());  // flatCount(*top)
      EXPECT_TRUE(c.flatTopBuilt());
      EXPECT_EQ(cell::flatCount(*c.core), c.flatCore().totalCount());
    }
  }
}

TEST(Session, OptionsBuilderSetsEveryKnob) {
  const core::CompileOptions opts = core::CompileOptions::builder()
                                        .var("PROTOTYPE", false)
                                        .railCapacityUaPerLambda(500.0)
                                        .optimizeDecoder(false)
                                        .rotoRouter(false)
                                        .evenSpacing(false)
                                        .ringGapLambda(64)
                                        .build();
  EXPECT_EQ(opts.vars.at("PROTOTYPE"), false);
  EXPECT_DOUBLE_EQ(opts.pass1.railCapacityUaPerLambda, 500.0);
  EXPECT_FALSE(opts.pass2.optimizeDecoder);
  EXPECT_FALSE(opts.pass3.rotoRouter);
  EXPECT_FALSE(opts.pass3.evenSpacing);
  EXPECT_EQ(opts.pass3.ringGapLambda, 64);

  // Builder-made options drive the pipeline like hand-made ones.
  auto result = core::compileChip(
      core::samples::prototypeChip(),
      core::CompileOptions::builder().var("PROTOTYPE", false));
  ASSERT_TRUE(result) << result.diagnostics().toString();
  auto proto = core::compileChip(core::samples::prototypeChip());
  ASSERT_TRUE(proto) << proto.diagnostics().toString();
  EXPECT_EQ((*proto)->stats.padCount, (*result)->stats.padCount + 2);
}

TEST(Emitters, RegistryHasTheFiveUnifiedPaths) {
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  for (const char* name : {"cif", "gds", "svg", "spice", "text"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  // ...and every other seed output path is reachable too.
  for (const char* name : {"sticks", "sticks-svg", "transistors", "block", "logic",
                           "simulation"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.find("no-such-backend"), nullptr);
}

TEST(Emitters, EveryRegisteredEmitterProducesOutput) {
  auto result = core::compileChip(core::samples::smallChip(4));
  ASSERT_TRUE(result) << result.diagnostics().toString();
  const core::CompiledChip& chip = **result;

  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  ASSERT_GE(reg.size(), 5u);
  for (const std::string_view name : reg.names()) {
    const reps::Emitter* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->name(), name);
    EXPECT_FALSE(e->fileExtension().empty()) << name;
    EXPECT_FALSE(e->description().empty()) << name;

    geom::TextBuffer out;
    e->emit(chip, out, {});
    EXPECT_NE(out.size(), 0u) << "emitter '" << name << "' wrote nothing";
  }
}

TEST(Emitters, EmitByNameAndShadowing) {
  auto result = core::compileChip(core::samples::smallChip(4));
  ASSERT_TRUE(result) << result.diagnostics().toString();

  std::ostringstream os;
  ASSERT_TRUE(reps::EmitterRegistry::global().emit(**result, "cif", os));
  EXPECT_NE(os.str().find("E"), std::string::npos);
  std::ostringstream bad;
  EXPECT_FALSE(reps::EmitterRegistry::global().emit(**result, "nope", bad));

  // A fresh registry can be built and extended without touching the
  // global one; a same-name registration shadows the built-in.
  class NullEmitter final : public reps::Emitter {
   public:
    [[nodiscard]] std::string_view name() const noexcept override { return "cif"; }
    [[nodiscard]] std::string_view fileExtension() const noexcept override { return "nul"; }
    [[nodiscard]] std::string_view description() const noexcept override {
      return "test stand-in";
    }
    void emit(const core::CompiledChip&, geom::TextBuffer& out,
              const reps::EmitterOptions&) const override {
      out << "(null)";
    }
  };
  reps::EmitterRegistry local;
  reps::registerBuiltinEmitters(local);
  const std::size_t builtins = local.size();
  local.add(std::make_unique<NullEmitter>());
  EXPECT_EQ(local.size(), builtins + 1);
  ASSERT_NE(local.find("cif"), nullptr);
  EXPECT_EQ(local.find("cif")->fileExtension(), "nul");
  // names() reports unique names even with the shadowed entry.
  const auto names = local.names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "cif"), 1);
}

TEST(Batch, CompilesManyChipsConcurrently) {
  std::vector<icl::ChipDesc> descs;
  for (int width : {2, 4, 8}) {
    descs.push_back(core::samples::smallChip(width));
    descs.push_back(core::samples::segmentedChip(width));
  }
  const std::size_t jobCount = descs.size();

  const core::BatchCompiler batch({}, 4);
  EXPECT_EQ(batch.threads(), 4u);
  const std::vector<core::BatchResult> results = batch.compileAll(std::move(descs));
  ASSERT_EQ(results.size(), jobCount);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].diags.toString();
    EXPECT_GT(results[i].chip->stats.dieArea, 0) << i;
    EXPECT_GT(results[i].elapsed.count(), 0) << i;
  }
  // Results come back in job order.
  EXPECT_EQ(results[0].name, "small");
  EXPECT_EQ(results[1].name, "segmented");

  // Concurrent compiles match a sequential reference, which itself
  // matches the string frontend over the same description.
  auto ref = core::compileChip(core::samples::smallChip(2));
  ASSERT_TRUE(ref);
  EXPECT_EQ(results[0].chip->stats.dieArea, (*ref)->stats.dieArea);
  auto refText = core::compileChip(core::samples::smallChipSource(2));
  ASSERT_TRUE(refText);
  EXPECT_EQ(results[0].chip->stats.dieArea, (*refText)->stats.dieArea);
}

TEST(Batch, FailedJobCarriesDiagnosticsWithoutAbortingTheBatch) {
  std::vector<core::BatchJob> jobs;
  jobs.push_back({"good", core::samples::smallChip(4), {}});
  jobs.push_back({"bad", "chip broken; data width 8;", {}});
  jobs.push_back({"also-good", core::samples::segmentedChip(4), {}});

  const core::BatchCompiler batch({}, 2);
  const auto results = batch.compileAll(std::move(jobs));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[1].diags.hasErrors());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(results[1].name, "bad");
}

TEST(Batch, PerJobOptionsApply) {
  std::vector<core::BatchJob> jobs;
  jobs.push_back({"proto", core::samples::prototypeChip(), {}});
  jobs.push_back({"prod", core::samples::prototypeChip(),
                  core::CompileOptions::builder().var("PROTOTYPE", false).build()});
  const auto results = core::BatchCompiler({}, 2).compileAll(std::move(jobs));
  ASSERT_TRUE(results[0].ok() && results[1].ok());
  EXPECT_EQ(results[0].chip->stats.padCount, results[1].chip->stats.padCount + 2);
}

// ---- one validator: every door rejects the same descriptions ----------

/// One invalid mutation of smallChip(4) and a message it must produce.
struct InvalidRow {
  const char* name;
  void (*mutate)(icl::ChipDesc&);
  const char* needle;
};

const InvalidRow kInvalidRows[] = {
    {"three buses", [](icl::ChipDesc& d) { d.buses.push_back("C"); }, "declares 3 buses"},
    {"data width 0", [](icl::ChipDesc& d) { d.dataWidth = 0; }, "data width must be positive"},
    {"data width 65", [](icl::ChipDesc& d) { d.dataWidth = 65; }, "at most 64 (got 65)"},
    {"overlapping fields", [](icl::ChipDesc& d) { d.microcode.fields[1].lo = 2; },
     "field 'sel' overlaps field 'op' at bit 2"},
    {"op [0:9]", [](icl::ChipDesc& d) { d.microcode.fields[0].hi = 9; },
     "bits [0:9] exceed microcode width 8"},
    {"hi < lo",
     [](icl::ChipDesc& d) {
       d.microcode.fields[2].lo = 7;
       d.microcode.fields[2].hi = 4;
     },
     "bad bit range [7:4]"},
    {"microcode width 0", [](icl::ChipDesc& d) { d.microcode.width = 0; },
     "microcode width must be positive"},
    {"microcode width 65", [](icl::ChipDesc& d) { d.microcode.width = 65; },
     "microcode width must be at most 64 (got 65)"},
    {"63-bit field",
     [](icl::ChipDesc& d) {
       d.microcode.width = 70;
       d.microcode.fields[2].hi = 66;
     },
     "are wider than 62 bits"},
    {"duplicate element", [](icl::ChipDesc& d) { d.core.push_back(d.core[1]); },
     "duplicate element name 'RA'"},
    {"duplicate bus", [](icl::ChipDesc& d) { d.buses[1] = "A"; }, "duplicate bus 'A'"},
    {"duplicate field", [](icl::ChipDesc& d) { d.microcode.fields[1].name = "op"; },
     "duplicate microcode field 'op'"},
    {"empty core", [](icl::ChipDesc& d) { d.core.clear(); }, "chip core is empty"},
};

/// Severity and message of each diagnostic; locations differ between a
/// hand-made description (none) and its text (line:column).
std::vector<std::string> messages(const icl::DiagnosticList& diags) {
  std::vector<std::string> out;
  for (const icl::Diagnostic& d : diags.all()) {
    out.push_back(std::to_string(static_cast<int>(d.severity)) + " " + d.message);
  }
  return out;
}

TEST(Validation, EveryDoorRejectsTheSameDescriptions) {
  for (const InvalidRow& row : kInvalidRows) {
    SCOPED_TRACE(row.name);
    icl::ChipDesc desc = core::samples::smallChip(4);
    row.mutate(desc);

    auto typed = core::compileChip(desc);
    ASSERT_FALSE(typed.hasValue());
    ASSERT_TRUE(typed.diagnostics().hasErrors());
    EXPECT_NE(typed.diagnostics().toString().find(row.needle), std::string::npos)
        << typed.diagnostics().toString();

    // Every description here lexes, so its text fails with the same
    // messages: the parser reads it, the same validator rejects it.
    auto text = core::compileChip(desc.toString());
    ASSERT_FALSE(text.hasValue());
    EXPECT_EQ(messages(text.diagnostics()), messages(typed.diagnostics()));

    std::vector<core::BatchJob> jobs;
    jobs.push_back({row.name, desc, {}});
    const auto batch = core::BatchCompiler({}, 1).compileAll(std::move(jobs));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_FALSE(batch[0].ok());
    EXPECT_EQ(messages(batch[0].diags), messages(typed.diagnostics()));

    svc::CompileService service;
    const svc::CompileResponse resp = service.compile(svc::CompileRequest::ofDesc(desc));
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(messages(resp.diags), messages(typed.diagnostics()));
    const svc::CompileResponse fromText =
        service.compile(svc::CompileRequest::ofSource(row.name, desc.toString()));
    EXPECT_FALSE(fromText.ok());
    EXPECT_EQ(service.stats().failures, 2u);
    EXPECT_EQ(service.cache().size(), 0u);
  }
}

TEST(Validation, DescriptionEditIsValidatedAtParse) {
  core::CompileSession session(core::samples::smallChip(4));
  ASSERT_TRUE(session.runTo(core::Stage::Finalize));

  icl::ChipDesc threeBuses = core::samples::smallChip(4);
  threeBuses.buses.push_back("C");
  EXPECT_EQ(session.setDescription(threeBuses), core::Stage::Parse);
  EXPECT_FALSE(session.runTo(core::Stage::Finalize));
  EXPECT_EQ(session.description(), nullptr);
  EXPECT_NE(session.diagnostics().toString().find("declares 3 buses"), std::string::npos);

  // A valid replacement rolls the failed parse back and compiles.
  EXPECT_EQ(session.setDescription(core::samples::smallChip(8)), core::Stage::Parse);
  auto result = session.run();
  ASSERT_TRUE(result) << result.diagnostics().toString();
  EXPECT_FALSE(result.diagnostics().hasErrors());
}

}  // namespace
}  // namespace bb
