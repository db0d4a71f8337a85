/// verify — pre-tape-out checking: draw a design, compile it, then run
/// DRC over the flattened die with one checker built in setup, then the
/// linter. No emitter runs, so geometry-kernel work shows here.

#include "bench.hpp"
#include "trace.hpp"

#include "drc/drc.hpp"
#include "lint/lint.hpp"
#include "tech/rules.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>

namespace pb {

namespace {

/// Even widths and register counts up to 32 bit x 16 regs: small enough
/// that one run covers the grid more than twice.
std::vector<Design> grid() {
  std::vector<Design> g = designGrid({2, 32, 8, 32, 4, 16, 4, 32});
  std::erase_if(g, [](const Design& d) { return d.width % 2 != 0 || d.regs % 2 != 0; });
  return g;
}

/// Every field of every violation, in report order.
std::string drcText(const bb::drc::DrcReport& r) {
  std::ostringstream os;
  for (const bb::drc::Violation& v : r.violations) {
    os << v.rule << '|' << static_cast<int>(v.layerA) << '|' << static_cast<int>(v.layerB)
       << '|' << v.where.x0 << ',' << v.where.y0 << ',' << v.where.x1 << ',' << v.where.y1
       << '|' << v.message << '\n';
  }
  os << "shapes " << r.shapesChecked << '\n';
  return os.str();
}

struct Reports {
  bb::drc::DrcReport drc;
  bb::lint::LintReport lint;
};

/// The op's library calls: flatten the core, prebuild the spatial
/// indexes, check the die, lint the chip.
Reports check(const bb::core::CompiledChip& chip, const bb::drc::DeckChecker& checker,
              TraceBuffer* tb) {
  {
    Span s(tb, Layer::CellFlatCore);
    (void)chip.flatCore();
  }
  {
    Span s(tb, Layer::GeomIndexBuild);
    chip.flatTop().buildIndexes();
    chip.flatCore().buildIndexes();
  }
  Reports r;
  {
    Span s(tb, Layer::DrcCheck);
    r.drc = checker.check(chip.flatTop(), chip.top->boundary());
  }
  {
    Span s(tb, Layer::LintChip);
    r.lint = bb::lint::lintChip(chip);
  }
  return r;
}

class Verify final : public Workload {
 public:
  explicit Verify(WorkloadConfig cfg) : cfg_(std::move(cfg)) {}

  [[nodiscard]] int tailPercentile() const override { return 90; }

  void setup() override {
    expected_ = ExpectedTable::load(cfg_.dataDir + "/verify.txt");
    checker_.emplace(bb::tech::meadConwayRules());
    designs_ = grid();
    std::vector<std::size_t> ops;
    for (std::size_t i = 0; i < designs_.size(); ++i) {
      descs_.push_back(designs_[i].desc());
      ops.push_back(i);
    }
    deck_.emplace(std::move(ops), cfg_.seed);
  }

  OpOutcome op(int, std::uint64_t i, TraceBuffer* tb) override {
    const std::size_t d = deck_->draw();
    // The chip outlives the timed op, so its teardown is not op latency.
    bb::core::CompiledChipPtr chip;
    std::optional<Reports> r;
    const auto latency = timedOp(tb, i, [&] {
      chip = compileSpanned(nullptr, descs_[d], {}, tb);
      if (chip) r = check(*chip, *checker_, tb);
    });
    if (!r) return {latency, false};
    violations_ += r->drc.violations.size();
    findings_ += r->lint.findings.size();
    const std::string id = designs_[d].id();
    const bool drcOk = expected_.matches(id + "/drc", drcText(r->drc));
    const bool lintOk = expected_.matches(id + "/lint", r->lint.toJson());
    return {latency, drcOk && lintOk};
  }

  void beginPhase() override { violations_ = findings_ = 0; }
  void endPhase(std::uint64_t ops, std::map<std::string, double>& out) override {
    out["drc.violations"] = static_cast<double>(violations_) / static_cast<double>(ops);
    out["lint.findings"] = static_cast<double>(findings_) / static_cast<double>(ops);
  }

 private:
  WorkloadConfig cfg_;
  ExpectedTable expected_;
  std::optional<bb::drc::DeckChecker> checker_;
  std::vector<Design> designs_;
  std::vector<bb::icl::ChipDesc> descs_;
  std::optional<Deck<std::size_t>> deck_;
  std::uint64_t violations_ = 0;
  std::uint64_t findings_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeVerify(const WorkloadConfig& cfg) {
  return std::make_unique<Verify>(cfg);
}

void recordVerify(const std::string& dataDir) {
  const bb::drc::DeckChecker checker(bb::tech::meadConwayRules());
  ExpectedTable t;
  for (const Design& d : grid()) {
    const auto chip = compileSpanned(nullptr, d.desc(), {}, nullptr);
    if (!chip) throw std::runtime_error("verify: cannot compile " + d.id());
    const Reports r = check(*chip, checker, nullptr);
    t.record(d.id() + "/drc", drcText(r.drc));
    t.record(d.id() + "/lint", r.lint.toJson());
  }
  t.save(dataDir + "/verify.txt");
}

}  // namespace pb
