/// \file lint.hpp
/// `bb::lint` — the rule-based static design analyzer. Two tiers share
/// one framework:
///
///  * **frontend lint** reads the `icl::ChipDesc` alone: unused or
///    undriven buses, unreferenced microcode fields, duplicate-effect
///    parameters, conditional-assembly branches no variable assignment
///    can reach, suspicious widths vs `dataWidth`;
///  * **ERC** reads the extracted transistor netlist of the compiled
///    artwork: floating gates, self-connected gates, undriven/unloaded
///    nets, isolated geometry islands, VDD/GND shorts, unconnected
///    declared ports.
///
/// The framework mirrors the `reps::Emitter` registry: `Rule` instances
/// are discoverable by name in a shared-mutex `RuleRegistry`; each run
/// produces `Finding`s filtered by severity floor and suppressions into
/// a `LintReport` with deterministic ordering (rules sorted by name,
/// findings in each rule's emission order), so the JSON report is
/// byte-identical whether rules ran serially or fanned out over the
/// shared `core::ThreadPool`.

#pragma once

#include "core/chip.hpp"
#include "core/digest.hpp"
#include "core/once_slot.hpp"
#include "extract/extract.hpp"
#include "lint/options.hpp"

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bb::lint {

/// One problem a rule found.
struct Finding {
  std::string rule;                                ///< registry name of the rule
  icl::Severity severity = icl::Severity::Warning;
  icl::SourceLoc loc;       ///< description position (line 0 for geometric findings)
  std::string chipPath;     ///< "chip/object", the suppression / dedup address
  std::string message;
  geom::Point at{};         ///< layout location (ERC findings; see hasAt)
  bool hasAt = false;

  /// Line-independent identity: rule + chipPath + message, so a finding
  /// keeps its fingerprint when unrelated edits move source lines. This
  /// is what CI diffs against a baseline report.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
  [[nodiscard]] std::string toString() const;
};

/// Everything a rule may look at. Frontend rules read `desc()`; ERC
/// rules read `extraction()`, which is computed lazily exactly once and
/// shared by every ERC rule in the run (thread-safe: a `core::OnceSlot`).
class LintContext {
 public:
  /// Frontend-only context (no artwork).
  LintContext(std::string chipName, const icl::ChipDesc* desc, const LintOptions& opts);
  /// Full context: description (may be null for bare cells) + artwork.
  LintContext(std::string chipName, const icl::ChipDesc* desc,
              const cell::FlatLayout* flat, std::vector<extract::NetLabel> labels,
              std::optional<geom::Rect> boundary, const LintOptions& opts);

  LintContext(const LintContext&) = delete;
  LintContext& operator=(const LintContext&) = delete;

  /// The chip label findings are addressed under ("<chip()>/object").
  [[nodiscard]] const std::string& chip() const noexcept { return chipName_; }
  /// Null when linting bare artwork (frontend rules skip themselves).
  [[nodiscard]] const icl::ChipDesc* desc() const noexcept { return desc_; }
  /// True when artwork is available (ERC rules skip themselves otherwise).
  [[nodiscard]] bool hasArtwork() const noexcept { return flat_ != nullptr; }
  /// The shared extraction of the artwork; null when `!hasArtwork()`.
  [[nodiscard]] const extract::ExtractResult* extraction() const;
  [[nodiscard]] const LintOptions& options() const noexcept { return *opts_; }

 private:
  std::string chipName_;
  const icl::ChipDesc* desc_ = nullptr;
  const cell::FlatLayout* flat_ = nullptr;
  std::vector<extract::NetLabel> labels_;
  std::optional<geom::Rect> boundary_;
  const LintOptions* opts_;
  core::OnceSlot<extract::ExtractResult> ex_;
};

/// One analysis rule. Implementations must be const-stateless: `check`
/// runs concurrently with other rules over the same context.
class Rule {
 public:
  virtual ~Rule() = default;

  /// Registry key, e.g. "erc-floating-gate".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// One-line human description for listings.
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;
  /// True for ERC rules, which need compiled artwork; frontend rules
  /// run on the description alone.
  [[nodiscard]] virtual bool needsArtwork() const noexcept { return false; }

  /// Append findings. Emission order must be deterministic — it is part
  /// of the report's byte-identity contract.
  virtual void check(const LintContext& ctx, std::vector<Finding>& out) const = 0;
};

/// Name -> rule. The global registry is pre-populated with every
/// built-in rule; callers may add their own (a same-name rule shadows
/// the earlier one). Lookups take a shared lock and registration an
/// exclusive one, mirroring `reps::EmitterRegistry`; rules are never
/// destroyed while the registry lives, so a found pointer stays valid.
class RuleRegistry {
 public:
  RuleRegistry() = default;

  /// The process-wide registry with all built-in rules registered.
  [[nodiscard]] static RuleRegistry& global();

  /// Register a rule under its own name (shadows a same-name one).
  void add(std::unique_ptr<Rule> rule);

  /// Null when no rule has that name.
  [[nodiscard]] const Rule* find(std::string_view name) const;
  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string_view> names() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// Register every built-in rule into `reg` (used by `global()`; exposed
/// so tests can build an isolated registry).
void registerBuiltinRules(RuleRegistry& reg);

/// The result of one lint run.
struct LintReport {
  std::string chip;
  std::vector<Finding> findings;      ///< deterministic order (see lint.hpp intro)
  std::vector<std::string> rulesRun;  ///< sorted rule names that executed
  std::size_t suppressed = 0;         ///< findings silenced by `LintOptions::suppress`
  std::size_t belowFloor = 0;         ///< findings below `LintOptions::minSeverity`

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }

  /// Machine-readable report (SARIF-like): rule id, severity, location,
  /// message, stable fingerprint per finding. Deterministic bytes — CI
  /// diffs two reports textually.
  [[nodiscard]] std::string toJson() const;
  /// One line per finding plus a totals line.
  [[nodiscard]] std::string summary() const;
  /// Append the findings to a diagnostic list (severity mapped 1:1), so
  /// lint results interleave with compile diagnostics deterministically.
  void toDiagnostics(icl::DiagnosticList& out) const;
};

// ---- entry points --------------------------------------------------------

/// Frontend lint only: analyze a description without compiling it.
[[nodiscard]] LintReport lintDesc(const icl::ChipDesc& desc, const LintOptions& opts = {},
                                  const RuleRegistry& reg = RuleRegistry::global());

/// Full lint of a compiled chip: frontend rules over its description,
/// ERC rules over the extracted core artwork. With
/// `LintOptions::boundaryConditions` the core's abutment box exempts
/// interface wiring from the connectivity rules.
[[nodiscard]] LintReport lintChip(const core::CompiledChip& chip, const LintOptions& opts = {},
                                  const RuleRegistry& reg = RuleRegistry::global());

/// ERC over a standalone cell (flattens, labels nets from bristles).
/// The cell's explicit boundary is used for the abutment exemption when
/// set; with only an implicit shape bbox, every outer rect would touch
/// it, so no exemption is applied.
[[nodiscard]] LintReport lintCell(const cell::Cell& c, const LintOptions& opts = {},
                                  const RuleRegistry& reg = RuleRegistry::global());

/// ERC over pre-flattened artwork with explicit labels.
[[nodiscard]] LintReport lintFlat(std::string chipName, const cell::FlatLayout& flat,
                                  const std::vector<extract::NetLabel>& labels,
                                  std::optional<geom::Rect> boundary,
                                  const LintOptions& opts = {},
                                  const RuleRegistry& reg = RuleRegistry::global());

}  // namespace bb::lint
