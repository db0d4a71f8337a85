/// \file batch.hpp
/// High-throughput compilation: run many chip descriptions through the
/// staged pipeline concurrently on the process-shared `core::ThreadPool`.
///
/// Each job is one index of one `parallelFor`: the whole `CompileSession`
/// and then, with `withDrc()`, the design-rule check, on one pool
/// thread. The batch builds ONE `drc::DeckChecker` for the shared rule
/// deck (the per-deck rule-unit plan is paid once, not per chip) and
/// checks at its bound `DrcOptions::threads`. At `threads = 0` each
/// check is a nested `parallelFor`: its rule units run inline while the
/// batch keeps every worker busy, and spread over the idle workers once
/// fewer jobs remain than the batch is wide, so the last big chip does
/// not finish its DRC on a single thread.

#pragma once

#include "core/session.hpp"
#include "drc/drc.hpp"

#include <chrono>
#include <optional>
#include <string>
#include <vector>

namespace bb::core {

struct BatchJob {
  BatchJob() = default;
  /// A job over source text: the worker's session parses it.
  BatchJob(std::string name, std::string source, CompileOptions opts = {})
      : name(std::move(name)), source(std::move(source)), opts(std::move(opts)) {}
  /// A job over a pre-built description (ChipBuilder, samples): the
  /// worker's session parses no text, only validates the description.
  BatchJob(std::string name, icl::ChipDesc desc, CompileOptions opts = {})
      : name(std::move(name)), desc(std::move(desc)), opts(std::move(opts)) {}

  std::string name;    ///< label for reports; defaults to the chip's own name
  std::string source;  ///< chip description text (ignored when `desc` is set)
  std::optional<icl::ChipDesc> desc;  ///< pre-built description; no text to parse
  CompileOptions opts; ///< per-job options (seeded from the batch default)
};

struct BatchResult {
  std::string name;
  CompiledChipPtr chip;  ///< null when the compile failed
  icl::DiagnosticList diags;
  std::chrono::nanoseconds elapsed{};  ///< this job's start-to-done time
  /// Sojourn time: from `compileAll` entry to this job's completion
  /// (its queueing behind earlier jobs plus `elapsed`).
  std::chrono::nanoseconds finishedAfter{};
  /// Filled when the batch was configured with `withDrc()` and the job
  /// compiled; absent otherwise.
  std::optional<drc::DrcReport> drc;

  [[nodiscard]] bool ok() const noexcept { return chip != nullptr; }
};

class BatchCompiler {
 public:
  /// `threads` is a width limit on the process-shared pool — a budget,
  /// not a spawn count; 0 picks the full pool width (workers + caller).
  /// Jobs that themselves go parallel (threaded DRC, nested
  /// parallelFor) draw from the same budget, so batch x DRC nesting
  /// never oversubscribes the machine.
  explicit BatchCompiler(CompileOptions defaults = {}, unsigned threads = 0);

  /// Check every compiled chip against `deck` (which must outlive the
  /// compiler) after its compile, on the same pool thread. One
  /// `drc::DeckChecker` is shared by the whole batch and checks at
  /// `opts.threads` (0 lets the last jobs' rule units spread over idle
  /// workers; see the file comment).
  BatchCompiler& withDrc(const tech::RuleDeck& deck, drc::DrcOptions opts = {});

  /// Compile every job; results come back in job order. A failed job
  /// carries its diagnostics, it never aborts the batch.
  [[nodiscard]] std::vector<BatchResult> compileAll(std::vector<BatchJob> jobs) const;

  /// Convenience: bare sources, batch-default options.
  [[nodiscard]] std::vector<BatchResult> compileAll(
      const std::vector<std::string>& sources) const;

  /// Convenience: pre-built descriptions, batch-default options. No job
  /// parses text; this is the high-throughput path for programmatic
  /// sweeps.
  [[nodiscard]] std::vector<BatchResult> compileAll(
      std::vector<icl::ChipDesc> descs) const;

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }
  [[nodiscard]] const CompileOptions& defaults() const noexcept { return defaults_; }

 private:
  CompileOptions defaults_;
  unsigned threads_;
  const tech::RuleDeck* drcDeck_ = nullptr;  ///< non-owning; null = no DRC
  drc::DrcOptions drcOpts_;
};

}  // namespace bb::core
