/// \file options.hpp
/// Compile options for the staged pipeline, with a fluent builder so
/// call sites can assemble a configuration in one expression instead of
/// mutating nested structs field by field.

#pragma once

#include "core/pass1_core.hpp"
#include "core/pass2_control.hpp"
#include "core/pass3_pads.hpp"
#include "lint/options.hpp"

#include <map>
#include <string>
#include <utility>

namespace bb::core {

struct CompileOptions {
  /// Conditional-assembly variable overrides ("at any time prior to
  /// actually compiling the chip, the user may decide").
  std::map<std::string, bool> vars;
  Pass1Options pass1;
  Pass2Options pass2;
  Pass3Options pass3;
  /// Static design analysis run during finalize when `lint.enabled`;
  /// findings join the session diagnostics and the full report is kept
  /// on `CompileSession::lintReport()`.
  lint::LintOptions lint;

  class Builder;
  [[nodiscard]] static Builder builder();
};

/// Fluent construction:
///
///   auto opts = CompileOptions::builder()
///                   .var("PROTOTYPE", false)
///                   .rotoRouter(false)
///                   .ringGapLambda(64)
///                   .build();
class CompileOptions::Builder {
 public:
  Builder& var(std::string name, bool value) {
    opts_.vars[std::move(name)] = value;
    return *this;
  }
  Builder& railCapacityUaPerLambda(double ua) {
    opts_.pass1.railCapacityUaPerLambda = ua;
    return *this;
  }
  Builder& optimizeDecoder(bool on) {
    opts_.pass2.optimizeDecoder = on;
    return *this;
  }
  Builder& rotoRouter(bool on) {
    opts_.pass3.rotoRouter = on;
    return *this;
  }
  Builder& evenSpacing(bool on) {
    opts_.pass3.evenSpacing = on;
    return *this;
  }
  Builder& ringGapLambda(geom::Coord gap) {
    opts_.pass3.ringGapLambda = gap;
    return *this;
  }
  Builder& lint(bool on) {
    opts_.lint.enabled = on;
    return *this;
  }
  Builder& lintMinSeverity(icl::Severity floor) {
    opts_.lint.minSeverity = floor;
    return *this;
  }

  [[nodiscard]] CompileOptions build() const { return opts_; }
  operator CompileOptions() const { return opts_; }

 private:
  CompileOptions opts_;
};

inline CompileOptions::Builder CompileOptions::builder() { return Builder{}; }

}  // namespace bb::core
