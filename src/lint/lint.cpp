#include "lint/lint.hpp"

#include "core/pool.hpp"

#include <algorithm>
#include <sstream>

namespace bb::lint {

namespace {

std::string_view severityName(icl::Severity s) noexcept {
  switch (s) {
    case icl::Severity::Error: return "error";
    case icl::Severity::Warning: return "warning";
    case icl::Severity::Note: return "note";
  }
  return "unknown";
}

/// JSON string escaping (control chars, quotes, backslash).
void appendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  out.push_back('"');
}

}  // namespace

// ---- Finding -------------------------------------------------------------

std::uint64_t Finding::fingerprint() const noexcept {
  // Deliberately excludes loc/at: a finding keeps its identity when
  // unrelated edits move source lines or shift layout coordinates.
  core::Digest d;
  d.update(std::string_view{rule});
  d.update(std::string_view{chipPath});
  d.update(std::string_view{message});
  return d.value();
}

std::string Finding::toString() const {
  std::ostringstream os;
  os << severityName(severity) << ": " << chipPath << ": [" << rule << "] " << message;
  if (loc.line > 0) os << " (" << loc.toString() << ")";
  if (hasAt) os << " @(" << at.x << "," << at.y << ")";
  return os.str();
}

// ---- LintContext ---------------------------------------------------------

LintContext::LintContext(std::string chipName, const icl::ChipDesc* desc,
                         const LintOptions& opts)
    : chipName_(std::move(chipName)), desc_(desc), opts_(&opts) {}

LintContext::LintContext(std::string chipName, const icl::ChipDesc* desc,
                         const cell::FlatLayout* flat, std::vector<extract::NetLabel> labels,
                         std::optional<geom::Rect> boundary, const LintOptions& opts)
    : chipName_(std::move(chipName)),
      desc_(desc),
      flat_(flat),
      labels_(std::move(labels)),
      boundary_(boundary),
      opts_(&opts) {}

const extract::ExtractResult* LintContext::extraction() const {
  if (flat_ == nullptr) return nullptr;
  return &ex_.get([this] {
    extract::ExtractOptions eo;
    eo.boundary = boundary_;
    return extract::extractFlat(*flat_, labels_, eo);
  });
}

// ---- RuleRegistry --------------------------------------------------------

// Defined in rules_frontend.cpp / rules_erc.cpp.
void registerFrontendRules(RuleRegistry& reg);
void registerErcRules(RuleRegistry& reg);

void registerBuiltinRules(RuleRegistry& reg) {
  registerFrontendRules(reg);
  registerErcRules(reg);
}

RuleRegistry& RuleRegistry::global() {
  static RuleRegistry* reg = [] {
    auto* r = new RuleRegistry();
    registerBuiltinRules(*r);
    return r;
  }();
  return *reg;
}

void RuleRegistry::add(std::unique_ptr<Rule> rule) {
  const std::unique_lock lock(mu_);
  rules_.push_back(std::move(rule));
}

const Rule* RuleRegistry::find(std::string_view name) const {
  const std::shared_lock lock(mu_);
  // Back-to-front so a later registration shadows an earlier one.
  for (auto it = rules_.rbegin(); it != rules_.rend(); ++it) {
    if ((*it)->name() == name) return it->get();
  }
  return nullptr;
}

std::vector<std::string_view> RuleRegistry::names() const {
  std::vector<std::string_view> out;
  {
    const std::shared_lock lock(mu_);
    out.reserve(rules_.size());
    for (const auto& r : rules_) out.push_back(r->name());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t RuleRegistry::size() const {
  const std::shared_lock lock(mu_);
  return rules_.size();
}

// ---- LintReport ----------------------------------------------------------

std::string LintReport::toJson() const {
  std::string out;
  out += "{\n  \"version\": \"bb-lint-1\",\n  \"chip\": ";
  appendJsonString(out, chip);
  out += ",\n  \"rulesRun\": [";
  for (std::size_t i = 0; i < rulesRun.size(); ++i) {
    if (i > 0) out += ", ";
    appendJsonString(out, rulesRun[i]);
  }
  out += "],\n  \"suppressed\": " + std::to_string(suppressed);
  out += ",\n  \"belowFloor\": " + std::to_string(belowFloor);
  out += ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i > 0 ? ",\n    {" : "\n    {";
    out += "\"rule\": ";
    appendJsonString(out, f.rule);
    out += ", \"severity\": ";
    appendJsonString(out, severityName(f.severity));
    out += ", \"path\": ";
    appendJsonString(out, f.chipPath);
    if (f.loc.line > 0) {
      out += ", \"line\": " + std::to_string(f.loc.line);
      out += ", \"column\": " + std::to_string(f.loc.column);
    }
    if (f.hasAt) {
      out += ", \"x\": " + std::to_string(f.at.x);
      out += ", \"y\": " + std::to_string(f.at.y);
    }
    out += ", \"message\": ";
    appendJsonString(out, f.message);
    out += ", \"fingerprint\": ";
    appendJsonString(out, core::Digest{f.fingerprint()}.hex());
    out += "}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string LintReport::summary() const {
  std::ostringstream os;
  for (const Finding& f : findings) os << f.toString() << "\n";
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
  for (const Finding& f : findings) {
    if (f.severity == icl::Severity::Error) ++errors;
    else if (f.severity == icl::Severity::Warning) ++warnings;
    else ++notes;
  }
  os << chip << ": " << errors << " error(s), " << warnings << " warning(s), " << notes
     << " note(s); " << suppressed << " suppressed, " << belowFloor << " below floor\n";
  return os.str();
}

void LintReport::toDiagnostics(icl::DiagnosticList& out) const {
  for (const Finding& f : findings) {
    out.add({f.severity, f.loc, "[" + f.rule + "] " + f.chipPath + ": " + f.message});
  }
}

// ---- the run -------------------------------------------------------------

namespace {

LintReport runLint(const LintContext& ctx, const LintOptions& opts, const RuleRegistry& reg) {
  LintReport report;
  report.chip = ctx.chip();

  // Select applicable rules, sorted by name — the determinism anchor.
  std::vector<const Rule*> rules;
  for (const std::string_view name : reg.names()) {
    if (!opts.rules.empty() &&
        std::find(opts.rules.begin(), opts.rules.end(), name) == opts.rules.end()) {
      continue;
    }
    const Rule* r = reg.find(name);
    if (r == nullptr) continue;
    if (r->needsArtwork() && !ctx.hasArtwork()) continue;
    if (!r->needsArtwork() && ctx.desc() == nullptr) continue;
    rules.push_back(r);
  }

  // Fan the rules out over the shared pool into per-rule slots, then
  // concatenate in rule order: the report is byte-identical at any
  // width. Grain 1 — a rule is the unit of work. The ERC rules share
  // one lazily-extracted netlist via LintContext::extraction().
  std::vector<std::vector<Finding>> slots(rules.size());
  core::ThreadPool::global().parallelFor(
      rules.size(), 1, [&](std::size_t i) { rules[i]->check(ctx, slots[i]); }, opts.threads);

  for (std::size_t i = 0; i < rules.size(); ++i) {
    report.rulesRun.emplace_back(rules[i]->name());
    for (Finding& f : slots[i]) {
      const bool suppressedRule =
          std::find(opts.suppress.begin(), opts.suppress.end(), f.rule) != opts.suppress.end();
      const bool suppressedInstance =
          std::find(opts.suppress.begin(), opts.suppress.end(), f.rule + "@" + f.chipPath) !=
          opts.suppress.end();
      if (suppressedRule || suppressedInstance) {
        ++report.suppressed;
      } else if (static_cast<int>(f.severity) > static_cast<int>(opts.minSeverity)) {
        ++report.belowFloor;
      } else {
        report.findings.push_back(std::move(f));
      }
    }
  }
  return report;
}

}  // namespace

LintReport lintDesc(const icl::ChipDesc& desc, const LintOptions& opts,
                    const RuleRegistry& reg) {
  const LintContext ctx(desc.name, &desc, opts);
  return runLint(ctx, opts, reg);
}

LintReport lintChip(const core::CompiledChip& chip, const LintOptions& opts,
                    const RuleRegistry& reg) {
  if (chip.core == nullptr) return lintDesc(chip.desc, opts, reg);
  std::optional<geom::Rect> boundary;
  if (opts.boundaryConditions) boundary = chip.core->boundary();
  const LintContext ctx(chip.desc.name, &chip.desc, &chip.flatCore(),
                        extract::labelsOf(*chip.core), boundary, opts);
  return runLint(ctx, opts, reg);
}

LintReport lintCell(const cell::Cell& c, const LintOptions& opts, const RuleRegistry& reg) {
  const cell::FlatLayout flat = cell::flatten(c);
  std::optional<geom::Rect> boundary;
  // Only an explicit abutment box is an interface contract; the implicit
  // shape bbox always touches the outermost geometry and would exempt it.
  if (opts.boundaryConditions && c.hasExplicitBoundary()) boundary = c.boundary();
  const LintContext ctx(c.name(), nullptr, &flat, extract::labelsOf(c), boundary, opts);
  return runLint(ctx, opts, reg);
}

LintReport lintFlat(std::string chipName, const cell::FlatLayout& flat,
                    const std::vector<extract::NetLabel>& labels,
                    std::optional<geom::Rect> boundary, const LintOptions& opts,
                    const RuleRegistry& reg) {
  const LintContext ctx(std::move(chipName), nullptr, &flat, labels, boundary, opts);
  return runLint(ctx, opts, reg);
}

}  // namespace bb::lint
