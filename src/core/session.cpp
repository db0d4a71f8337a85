#include "core/session.hpp"

#include "cell/flatten.hpp"
#include "core/fingerprint.hpp"
#include "icl/builder.hpp"
#include "icl/parser.hpp"
#include "lint/lint.hpp"

#include <sstream>

namespace bb::core {

std::string_view stageName(Stage s) noexcept {
  switch (s) {
    case Stage::Parse: return "parse";
    case Stage::Vote: return "vote";
    case Stage::Pass1: return "pass1";
    case Stage::Pass2: return "pass2";
    case Stage::Pass3: return "pass3";
    case Stage::Finalize: return "finalize";
  }
  return "?";
}

std::chrono::nanoseconds TimingObserver::total() const noexcept {
  std::chrono::nanoseconds sum{};
  for (const auto ns : ns_) sum += ns;
  return sum;
}

std::string TimingObserver::report() const {
  std::ostringstream os;
  for (const Stage s : kAllStages) {
    os << stageName(s) << ": " << elapsed(s).count() / 1e6 << " ms\n";
  }
  os << "total: " << total().count() / 1e6 << " ms\n";
  return os.str();
}

CompileSession::CompileSession(std::string source, CompileOptions opts)
    : opts_(std::move(opts)), source_(std::move(source)) {}

CompileSession::CompileSession(icl::ChipDesc desc, CompileOptions opts)
    : opts_(std::move(opts)), haveDesc_(true), desc_(std::move(desc)) {}

void CompileSession::addObserver(PassObserver* obs) {
  if (obs != nullptr) observers_.push_back(obs);
}

const icl::ChipDesc* CompileSession::description() const noexcept {
  return parsed_ ? &desc_ : nullptr;
}

bool CompileSession::runNext() {
  if (failed_ || finished_) return false;
  return runStage(next_);
}

bool CompileSession::runTo(Stage last) {
  while (!failed_ && !finished_ && next_ <= last) {
    if (!runStage(next_)) return false;
  }
  return !failed_;
}

Expected<CompiledChipPtr> CompileSession::run() {
  runTo(Stage::Finalize);
  if (failed_) return Expected<CompiledChipPtr>::failure(diags_);
  CompiledChipPtr chip = takeChip();
  if (chip == nullptr) {
    // Finished but the chip is gone: a second run() (or run() after
    // takeChip()) must not hand back a truthy-but-null result.
    icl::DiagnosticList diags = diags_;
    diags.error({}, "compile session already surrendered its chip");
    return Expected<CompiledChipPtr>::failure(std::move(diags));
  }
  return Expected<CompiledChipPtr>(std::move(chip), diags_);
}

CompiledChipPtr CompileSession::takeChip() {
  return finished_ ? std::move(chip_) : nullptr;
}

std::size_t CompileSession::totalExecutions() const noexcept {
  std::size_t sum = 0;
  for (const std::size_t c : execCount_) sum += c;
  return sum;
}

bool CompileSession::canRestartAt(Stage s) const noexcept {
  switch (s) {
    case Stage::Parse: return true;
    case Stage::Vote: return parsed_;
    case Stage::Pass1: return done(Stage::Vote);  // decls_ memoized
    case Stage::Pass2: return afterPass1_ != nullptr;
    case Stage::Pass3: return afterPass2_ != nullptr;
    case Stage::Finalize: return done(Stage::Pass3) && chip_ != nullptr;
  }
  return false;
}

Stage CompileSession::invalidateFrom(Stage want) {
  Stage s = want;
  while (s != Stage::Parse && !canRestartAt(s)) {
    s = static_cast<Stage>(static_cast<std::uint8_t>(s) - 1);
  }
  failed_ = false;
  finished_ = false;
  for (std::size_t i = static_cast<std::size_t>(s); i < kAllStages.size(); ++i) {
    stageDone_[i] = false;
  }
  // Roll the diagnostics back to the moment stage `s` last began; if the
  // stage never ran, no stage >= s contributed, so the list is already
  // the pre-s state.
  if (const auto& snap = diagsBefore_[static_cast<std::size_t>(s)]; snap.has_value()) {
    diags_ = *snap;
  }
  // Later stages' snapshots are now stale (they describe a run that was
  // just rolled back); drop them so a future rollback degrades to
  // leaving the list as-is instead of restoring the wrong one.
  for (std::size_t i = static_cast<std::size_t>(s) + 1; i < kAllStages.size(); ++i) {
    diagsBefore_[i].reset();
  }
  switch (s) {
    case Stage::Parse:
      parsed_ = false;
      decls_.clear();
      chip_.reset();
      afterPass1_.reset();
      afterPass2_.reset();
      break;
    case Stage::Vote:
      decls_.clear();
      chip_.reset();
      afterPass1_.reset();
      afterPass2_.reset();
      break;
    case Stage::Pass1:
      // Vote's memoized element list is reused; recreate only the chip
      // shell Vote would have made.
      chip_ = std::make_unique<CompiledChip>();
      chip_->desc = desc_;
      afterPass1_.reset();
      afterPass2_.reset();
      break;
    case Stage::Pass2:
      chip_ = std::make_unique<CompiledChip>(afterPass1_->clone());
      afterPass2_.reset();
      break;
    case Stage::Pass3:
      chip_ = std::make_unique<CompiledChip>(afterPass2_->clone());
      break;
    case Stage::Finalize:
      break;  // finalize rewrites stats + lint report; re-running is idempotent
  }
  lintReport_.reset();  // finalize recomputes it (or leaves it unset)
  next_ = s;
  return s;
}

std::optional<Stage> CompileSession::setOptions(const CompileOptions& opts) {
  // The first stage whose option inputs changed is the first dirty one.
  std::optional<Stage> dirty;
  for (const Stage s :
       {Stage::Vote, Stage::Pass1, Stage::Pass2, Stage::Pass3, Stage::Finalize}) {
    if (stageOptionsFingerprint(s, opts_) != stageOptionsFingerprint(s, opts)) {
      dirty = s;
      break;
    }
  }
  opts_ = opts;
  if (!dirty.has_value()) {
    // Identical inputs; a failed session may still want to resume.
    return failed_ ? std::optional<Stage>(invalidateFrom(next_)) : std::nullopt;
  }
  if (!done(*dirty) && !failed_) return std::nullopt;  // not reached yet: nothing to redo
  const Stage restart = failed_ && next_ < *dirty ? next_ : *dirty;
  return invalidateFrom(restart);
}

std::optional<Stage> CompileSession::setDescription(icl::ChipDesc desc) {
  if (parsed_ && Digest::of(desc_.toString()) == Digest::of(desc.toString())) {
    return std::nullopt;  // canonically identical: every memo stays valid
  }
  desc_ = std::move(desc);
  haveDesc_ = true;
  source_.clear();
  // The parse stage adopts and validates the new description. Before it
  // has run (and not failed) there is nothing to redo.
  if (!parsed_ && !failed_) return std::nullopt;
  return invalidateFrom(Stage::Parse);
}

bool CompileSession::runStage(Stage s) {
  for (PassObserver* obs : observers_) obs->onStageBegin(s, *this);
  diagsBefore_[static_cast<std::size_t>(s)] = diags_;
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = execute(s);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  if (ok) {
    doneFlag(s) = true;
    if (incremental_) {
      if (s == Stage::Pass1) {
        afterPass1_ = std::make_unique<CompiledChip>(chip_->clone());
      } else if (s == Stage::Pass2) {
        afterPass2_ = std::make_unique<CompiledChip>(chip_->clone());
      }
    }
    if (s == Stage::Finalize) {
      finished_ = true;
    } else {
      next_ = static_cast<Stage>(static_cast<std::uint8_t>(s) + 1);
    }
  } else {
    failed_ = true;
  }
  for (PassObserver* obs : observers_) obs->onStageEnd(s, *this, ok, elapsed);
  return ok;
}

bool CompileSession::execute(Stage s) {
  ++execCount_[static_cast<std::size_t>(s)];
  switch (s) {
    case Stage::Parse: {
      // Text is parsed, a typed description adopted; either way the one
      // validator decides whether the description may be compiled.
      if (!haveDesc_) {
        auto desc = icl::parseChip(source_, diags_);
        if (!desc) return false;
        desc_ = std::move(*desc);
      }
      if (!icl::validateChipDesc(desc_, diags_)) return false;
      parsed_ = true;
      return true;
    }
    case Stage::Vote: {
      // Conditional assembly resolves the element list before any pass
      // runs; this is where the user's last-minute variable overrides
      // take effect.
      decls_ = icl::assembleCore(desc_, opts_.vars, diags_);
      if (diags_.hasErrors()) return false;
      chip_ = std::make_unique<CompiledChip>();
      chip_->desc = desc_;
      return true;
    }
    case Stage::Pass1:
      return runPass1(*chip_, decls_, opts_.pass1, diags_);
    case Stage::Pass2:
      return runPass2(*chip_, opts_.pass2, diags_);
    case Stage::Pass3:
      return runPass3(*chip_, opts_.pass3, diags_);
    case Stage::Finalize: {
      chip_->stats.cellCount = chip_->lib.size();
      chip_->stats.shapeCount = cell::flatCount(*chip_->top);
      chip_->stats.logicGates = chip_->logic.gates().size();
      chip_->stats.logicSignals = chip_->logic.signalCount();
      lintReport_.reset();
      if (opts_.lint.enabled) {
        // Static design analysis over the finished chip. Findings join
        // the session diagnostics (after every compile diagnostic — the
        // deterministic interleave the diagnostics tests pin down); an
        // Error-severity finding flags the design, not the compile, so
        // the stage still succeeds and the chip stays available.
        auto report =
            std::make_shared<const lint::LintReport>(lint::lintChip(*chip_, opts_.lint));
        report->toDiagnostics(diags_);
        lintReport_ = std::move(report);
      }
      return true;
    }
  }
  return false;
}

Expected<CompiledChipPtr> compileChip(std::string_view source, CompileOptions opts) {
  return CompileSession(std::string(source), std::move(opts)).run();
}

Expected<CompiledChipPtr> compileChip(icl::ChipDesc desc, CompileOptions opts) {
  return CompileSession(std::move(desc), std::move(opts)).run();
}

}  // namespace bb::core
