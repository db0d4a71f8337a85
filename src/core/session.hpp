/// \file session.hpp
/// The staged compiler pipeline. A `CompileSession` walks the paper's
/// flow as six explicit, individually runnable stages:
///
///   parse -> vote -> pass1 -> pass2 -> pass3 -> finalize
///
/// where `parse` reads the description (from text, or adopts a typed
/// one) and validates it with `icl::validateChipDesc` — the one place a
/// compile checks its input — `vote` is the conditional-assembly step
/// that fixes the element list ("at any time prior to actually compiling
/// the chip, the user may decide ..."), and finalize fills the
/// bookkeeping stats. Each stage can
/// be run one at a time and the partial chip inspected in between — stop
/// after pass1 and look at the placement, attach a `PassObserver` for
/// per-stage timing, or just call `run()` for the whole flow.

#pragma once

#include "core/chip.hpp"
#include "core/expected.hpp"
#include "core/options.hpp"

#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bb::lint {
struct LintReport;
}

namespace bb::core {

enum class Stage : std::uint8_t { Parse = 0, Vote, Pass1, Pass2, Pass3, Finalize };

inline constexpr std::array<Stage, 6> kAllStages = {Stage::Parse, Stage::Vote,
                                                    Stage::Pass1, Stage::Pass2,
                                                    Stage::Pass3, Stage::Finalize};

[[nodiscard]] std::string_view stageName(Stage s) noexcept;

class CompileSession;

/// Pass-level hook: attach to a session to watch stages run. Used for
/// timing, progress reporting and instrumentation; observers are
/// non-owning and must outlive the session's stage runs.
class PassObserver {
 public:
  virtual ~PassObserver() = default;
  virtual void onStageBegin(Stage, const CompileSession&) {}
  virtual void onStageEnd(Stage, const CompileSession&, bool /*ok*/,
                          std::chrono::nanoseconds) {}
};

/// Ready-made observer: records wall-clock time per stage.
class TimingObserver : public PassObserver {
 public:
  void onStageEnd(Stage s, const CompileSession&, bool,
                  std::chrono::nanoseconds ns) override {
    ns_[static_cast<std::size_t>(s)] += ns;
  }

  [[nodiscard]] std::chrono::nanoseconds elapsed(Stage s) const noexcept {
    return ns_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::chrono::nanoseconds total() const noexcept;
  [[nodiscard]] std::string report() const;

 private:
  std::array<std::chrono::nanoseconds, kAllStages.size()> ns_{};
};

using CompiledChipPtr = std::unique_ptr<CompiledChip>;

class CompileSession {
 public:
  /// A session over source text: starts at the parse stage, which
  /// parses the text and then runs `icl::validateChipDesc` on it.
  explicit CompileSession(std::string source, CompileOptions opts = {});

  /// A session over a typed description — the first-class entry point
  /// for programmatically built chips (`icl::ChipBuilder`, the samples,
  /// a description taken from another session, one made by hand). The
  /// parse stage adopts `desc` and validates it exactly as it validates
  /// parsed text; every later stage behaves identically to the text
  /// path, so a built description and its `toString()` source compile to
  /// the same chip or fail with the same diagnostics.
  CompileSession(icl::ChipDesc desc, CompileOptions opts = {});

  CompileSession(CompileSession&&) = default;
  CompileSession& operator=(CompileSession&&) = default;

  void addObserver(PassObserver* obs);

  // ---- driving the pipeline -------------------------------------------
  /// The stage the next `runNext()` would execute. Meaningless once
  /// `finished()` or `failed()`.
  [[nodiscard]] Stage nextStage() const noexcept { return next_; }
  /// True once finalize has completed successfully.
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  /// True once any stage has diagnosed an error; later stages refuse to run.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Run exactly one stage. Returns false if the stage failed, the
  /// session had already failed, or the pipeline is already finished.
  bool runNext();
  /// Run stages up to and including `last`. False on failure.
  bool runTo(Stage last);
  /// Run everything that is left and hand over the chip.
  [[nodiscard]] Expected<CompiledChipPtr> run();

  // ---- incremental recompilation ---------------------------------------
  /// Stage-level memoization. When on, the session checkpoints the chip
  /// after pass1 and pass2 (a deep `CompiledChip::clone()`), so an edit
  /// that dirties a later stage re-runs only from that stage against the
  /// checkpoint instead of recompiling from scratch. Costs ~2 chip copies
  /// of memory per session; the compile service turns it on for sessions
  /// it keeps warm. Turning it on mid-pipeline checkpoints from the next
  /// stage onward only.
  void setIncremental(bool on) noexcept { incremental_ = on; }
  [[nodiscard]] bool incremental() const noexcept { return incremental_; }

  /// Roll the pipeline back so the next run re-executes from `s`. If the
  /// exact restart point is unavailable (no checkpoint — memoization off,
  /// stage never reached, or the chip was taken), degrades to the nearest
  /// earlier restartable stage, down to a full re-run from parse. Returns
  /// the stage actually restarted from; clears `failed()`/`finished()`.
  /// Memoized stage outputs before the restart point are reused as-is:
  /// re-running from pass1 does not re-vote, re-running from pass3 reuses
  /// the post-pass2 checkpoint.
  Stage invalidateFrom(Stage s);

  /// Replace the option set. Compares per-stage input fingerprints
  /// (`core::stageOptionsFingerprint`) and invalidates from the first
  /// stage whose inputs actually changed: editing only pass3 options on a
  /// finished incremental session re-runs pass3 + finalize and nothing
  /// else. Returns the stage the next run starts from, or nullopt when
  /// nothing dirtied an already-executed stage (options updated in place).
  std::optional<Stage> setOptions(const CompileOptions& opts);

  /// Replace the chip description (the session becomes a typed-desc
  /// session regardless of how it was constructed). A description whose
  /// canonical `toString()` is unchanged is a no-op; otherwise
  /// invalidates from the parse stage, which validates the replacement.
  /// Returns like `setOptions`.
  std::optional<Stage> setDescription(icl::ChipDesc desc);

  /// How many times stage `s` actually executed over the session's life —
  /// memoized skips don't count. This is how tests and the service bench
  /// prove an incremental re-run or a cached viewport request never
  /// re-ran a stage.
  [[nodiscard]] std::size_t executionCount(Stage s) const noexcept {
    return execCount_[static_cast<std::size_t>(s)];
  }
  /// Total stage executions (all stages summed).
  [[nodiscard]] std::size_t totalExecutions() const noexcept;

  // ---- inspection between stages --------------------------------------
  [[nodiscard]] const icl::DiagnosticList& diagnostics() const noexcept { return diags_; }
  /// The parsed, validated description (after the parse stage; null
  /// before, and when the parse stage failed).
  [[nodiscard]] const icl::ChipDesc* description() const noexcept;
  /// The conditionally-assembled element list (after the vote stage).
  [[nodiscard]] const std::vector<icl::ElementDecl>& assembledElements() const noexcept {
    return decls_;
  }
  /// The chip under construction — partial until finalize. Null before
  /// the vote stage or after `takeChip()`.
  [[nodiscard]] const CompiledChip* chip() const noexcept { return chip_.get(); }
  /// Take ownership of the finished chip (after finalize).
  [[nodiscard]] CompiledChipPtr takeChip();

  /// The lint report finalize produced, when `CompileOptions::lint` was
  /// enabled; null otherwise (or before finalize, or after a rollback).
  [[nodiscard]] std::shared_ptr<const lint::LintReport> lintReport() const noexcept {
    return lintReport_;
  }

  [[nodiscard]] const CompileOptions& options() const noexcept { return opts_; }

 private:
  bool runStage(Stage s);
  bool execute(Stage s);
  [[nodiscard]] bool canRestartAt(Stage s) const noexcept;
  [[nodiscard]] bool& doneFlag(Stage s) noexcept {
    return stageDone_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool done(Stage s) const noexcept {
    return stageDone_[static_cast<std::size_t>(s)];
  }

  CompileOptions opts_;
  std::string source_;
  bool haveDesc_ = false;  ///< constructed from a ChipDesc (parse adopts it)
  icl::ChipDesc desc_;
  std::vector<icl::ElementDecl> decls_;
  CompiledChipPtr chip_;
  icl::DiagnosticList diags_;
  std::vector<PassObserver*> observers_;
  Stage next_ = Stage::Parse;
  bool parsed_ = false;
  bool finished_ = false;
  bool failed_ = false;

  // Incremental-recompilation state. The checkpoints are post-stage chip
  // clones; the diagnostics snapshots record the list as each stage
  // began, so rolling back also rolls the diagnostics back.
  bool incremental_ = false;
  std::array<bool, kAllStages.size()> stageDone_{};
  std::array<std::size_t, kAllStages.size()> execCount_{};
  std::array<std::optional<icl::DiagnosticList>, kAllStages.size()> diagsBefore_;
  CompiledChipPtr afterPass1_;
  CompiledChipPtr afterPass2_;
  std::shared_ptr<const lint::LintReport> lintReport_;
};

/// One-shot convenience: the whole pipeline over source text.
[[nodiscard]] Expected<CompiledChipPtr> compileChip(std::string_view source,
                                                    CompileOptions opts = {});

/// One-shot convenience over a typed description: no text is parsed,
/// but the description is validated like parsed text.
/// `compileChip(ChipBuilder("c")....buildOrDie())` and
/// `compileChip(desc.toString())` produce bit-identical chips.
[[nodiscard]] Expected<CompiledChipPtr> compileChip(icl::ChipDesc desc,
                                                    CompileOptions opts = {});

}  // namespace bb::core
