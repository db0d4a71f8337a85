/// Quickstart: the whole Bristle Blocks flow in one page — exactly the
/// experience the paper promises ("What if a person were able to sit
/// down and design a complete chip in a single afternoon?").
///
///   1. build a chip description in code with the fluent ChipBuilder —
///      microcode format, data/bus section, core element list — and get
///      a validated, typed icl::ChipDesc (no source text, no parsing;
///      the ICL language remains available as a second frontend via
///      parseChip, and desc.toString() renders this same description
///      as one page of it),
///   2. open a CompileSession on the description and run the staged
///      pipeline (parse -> vote -> pass1 -> pass2 -> pass3 -> finalize;
///      parse adopts and validates a typed description), watching each stage
///      through a PassObserver,
///   3. emit the mask set and every other artifact through the
///      unified Emitter registry — each backend discoverable by name.
///
/// Run from the build tree:  ./quickstart [output-dir]
///
/// This is the one-shot batch flow. For the persistent, interactive
/// flow — a compile server with a content-addressed chip cache,
/// incremental recompilation and pan/zoom viewport serving — see
/// examples/service_demo.cpp (`./service_demo`).

#include "core/session.hpp"
#include "icl/builder.hpp"
#include "reps/emitter.hpp"

#include <cstdio>
#include <fstream>
#include <string>

namespace {

/// The "single afternoon" chip, built programmatically: two working
/// registers and an ALU between two buses, with I/O ports. `sym` names
/// a bus or microcode field, `expr` is a decode expression, and the
/// element order is the placement order on the die.
bb::icl::ChipDesc afternoonChip() {
  using namespace bb::icl;
  return ChipBuilder("afternoon")
      .microcode(8, {field("op", 0, 2), field("misc", 4, 7)})
      .dataWidth(4)
      .buses({"A", "B"})
      .element("inport", "IN", {{"bus", sym("A")}, {"drive", expr("op==1 | op==2")}})
      .element("register", "R0",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==1")},
                {"drive", expr("op==2")}})
      .element("alu", "ALU",
               {{"a", sym("A")}, {"b", sym("B")}, {"out", sym("A")},
                {"op", sym("misc")}, {"ops", syms({"add", "and", "passa"})},
                {"load", expr("op==2")}, {"drive", expr("op==3")}})
      .element("register", "R1",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==3")},
                {"drive", expr("op==4")}})
      .element("outport", "OUT", {{"bus", sym("B")}, {"sample", expr("op==4")}})
      .buildOrDie();
}

/// Watch the pipeline: one line per stage as it completes.
class ProgressObserver : public bb::core::PassObserver {
 public:
  void onStageEnd(bb::core::Stage s, const bb::core::CompileSession&, bool ok,
                  std::chrono::nanoseconds ns) override {
    std::printf("  stage %-8s %s  (%.2f ms)\n",
                std::string(bb::core::stageName(s)).c_str(), ok ? "ok" : "FAILED",
                static_cast<double>(ns.count()) / 1e6);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::string outDir = argc > 1 ? argv[1] : ".";

  // The staged pipeline over the typed description, with a pass-level
  // observer attached.
  bb::core::CompileSession session(afternoonChip());
  ProgressObserver progress;
  session.addObserver(&progress);

  std::printf("compiling:\n");

  // Stages can be driven one at a time: stop after pass1 to inspect the
  // core placement before any control or pad work has happened.
  if (!session.runTo(bb::core::Stage::Pass1)) {
    std::fprintf(stderr, "compile failed:\n%s", session.diagnostics().toString().c_str());
    return 1;
  }
  std::printf("\nafter pass1: %zu placed columns, core not yet ringed\n",
              session.chip()->placed.size());

  // Then let the rest of the pipeline run.
  auto result = session.run();
  if (!result) {
    std::fprintf(stderr, "compile failed:\n%s", result.diagnostics().toString().c_str());
    return 1;
  }
  const auto chip = std::move(*result);
  std::printf("\ncompiled chip '%s'\n\n%s\n", chip->desc.name.c_str(),
              chip->statsText().c_str());

  // Every output format lives in one registry, discoverable by name.
  const bb::reps::EmitterRegistry& emitters = bb::reps::EmitterRegistry::global();
  std::printf("emitters (%zu registered):\n", emitters.size());
  for (const std::string_view name : emitters.names()) {
    const bb::reps::Emitter* e = emitters.find(name);
    const std::string file = "afternoon_" + std::string(name) + "." +
                             std::string(e->fileExtension());
    std::ofstream out(outDir + "/" + file, std::ios::binary);
    emitters.emit(*chip, name, out);
    std::printf("  %-10s -> %s/%s  (%s)\n", std::string(name).c_str(), outDir.c_str(),
                file.c_str(), std::string(e->description()).c_str());
  }
  return 0;
}
