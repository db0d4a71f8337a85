/// sweep — design-space exploration: compile only (parse -> finalize) a
/// variant drawn from the widest parameter ranges, with PROTOTYPE toggled
/// through the compile options. The only workload where the paper's
/// passes dominate.

#include "bench.hpp"
#include "trace.hpp"

#include <array>
#include <optional>
#include <stdexcept>

namespace pb {

namespace {

constexpr GridRanges kGrid{2, 32, 8, 64, 4, 16, 4, 32};

bb::core::CompileOptions prototypeOptions(bool on) {
  return bb::core::CompileOptions::builder().var("PROTOTYPE", on).build();
}

class Sweep final : public Workload {
 public:
  explicit Sweep(WorkloadConfig cfg) : cfg_(std::move(cfg)) {}

  [[nodiscard]] int tailPercentile() const override { return 99; }

  void setup() override {
    expected_ = ExpectedTable::load(cfg_.dataDir + "/stats.txt");
    designs_ = designGrid(kGrid);
    opts_ = {prototypeOptions(false), prototypeOptions(true)};
    std::vector<std::size_t> ops;
    for (std::size_t i = 0; i < designs_.size(); ++i) {
      descs_.push_back(designs_[i].desc());
      texts_.push_back(descs_.back().toString());
      ops.push_back(i);
    }
    deck_.emplace(std::move(ops), cfg_.seed);
  }

  OpOutcome op(int, std::uint64_t i, TraceBuffer* tb) override {
    // Frontend and PROTOTYPE cycle through all four pairings.
    const std::size_t d = deck_->draw();
    const bool useText = i % 2 == 1;
    const bool proto = i / 2 % 2 == 1;
    bb::core::CompiledChipPtr chip;
    const auto latency = timedOp(tb, i, [&] {
      chip = compileSpanned(useText ? &texts_[d] : nullptr, descs_[d], opts_[proto ? 1 : 0], tb);
    });
    const bool ok =
        chip && expected_.matches(statsKey(designs_[d], proto), chip->statsText());
    return {latency, ok};
  }

 private:
  WorkloadConfig cfg_;
  ExpectedTable expected_;
  std::vector<Design> designs_;
  std::vector<bb::icl::ChipDesc> descs_;
  std::vector<std::string> texts_;
  std::array<bb::core::CompileOptions, 2> opts_;
  std::optional<Deck<std::size_t>> deck_;
};

}  // namespace

std::unique_ptr<Workload> makeSweep(const WorkloadConfig& cfg) {
  return std::make_unique<Sweep>(cfg);
}

void recordSweep(const std::string& dataDir) {
  ExpectedTable t;
  for (const Design& d : designGrid(kGrid)) {
    const bb::icl::ChipDesc desc = d.desc();
    const std::string text = desc.toString();
    for (const bool proto : {false, true}) {
      const auto a = compileSpanned(nullptr, desc, prototypeOptions(proto), nullptr);
      const auto b = compileSpanned(&text, desc, prototypeOptions(proto), nullptr);
      if (!a || !b) throw std::runtime_error("sweep: cannot compile " + d.id());
      if (a->statsText() != b->statsText()) {
        throw std::runtime_error("sweep: frontends disagree on " + d.id());
      }
      t.record(statsKey(d, proto), a->statsText());
    }
  }
  t.save(dataDir + "/stats.txt");
}

}  // namespace pb
