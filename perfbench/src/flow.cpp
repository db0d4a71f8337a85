/// flow — the paper's TIME claim: draw a design, compile it cold, then
/// emit it in every representation. Emitters dominate the op; DRC and the
/// compile service are bypassed.

#include "bench.hpp"
#include "trace.hpp"

#include "reps/emitter.hpp"

#include <array>
#include <optional>
#include <stdexcept>
#include <utility>

namespace pb {

namespace {

/// Pinned by name: a format the registry lost is a failed op, and a new
/// format does not silently join the workload.
constexpr std::array<std::string_view, 11> kFormats = {
    "block", "cif", "gds", "logic", "simulation", "spice",
    "sticks", "sticks-svg", "svg", "text", "transistors"};

constexpr GridRanges kGrid{2, 16, 8, 16, 4, 8, 4, 16};

std::string outputKey(const Design& d, std::string_view format) {
  return d.id() + "/" + std::string(format);
}

/// Emit every pinned format; false when a format is not registered.
bool emitAll(const bb::core::CompiledChip& chip, std::array<std::string, 11>& outs,
             TraceBuffer* tb) {
  const bb::reps::EmitterRegistry& reg = bb::reps::EmitterRegistry::global();
  bool ok = true;
  for (std::size_t k = 0; k < kFormats.size(); ++k) {
    const bb::reps::Emitter* e = reg.find(kFormats[k]);
    if (!e) {
      ok = false;
      continue;
    }
    Span s(tb, repsLayer(kFormats[k]));
    outs[k] = e->emitToString(chip);
  }
  return ok;
}

class Flow final : public Workload {
 public:
  explicit Flow(WorkloadConfig cfg) : cfg_(std::move(cfg)) {}

  [[nodiscard]] int tailPercentile() const override { return 90; }

  void setup() override {
    expected_ = ExpectedTable::load(cfg_.dataDir + "/flow.txt");
    designs_ = designGrid(kGrid);
    std::vector<std::size_t> ops;
    for (std::size_t i = 0; i < designs_.size(); ++i) {
      descs_.push_back(designs_[i].desc());
      texts_.push_back(descs_.back().toString());
      ops.push_back(i);
    }
    deck_.emplace(std::move(ops), cfg_.seed);
  }

  OpOutcome op(int, std::uint64_t i, TraceBuffer* tb) override {
    // Every other op compiles from ICL text, the rest from the typed desc.
    const std::size_t d = deck_->draw();
    const bool useText = i % 2 == 1;
    // The chip outlives the timed op, so its teardown is not op latency.
    bb::core::CompiledChipPtr chip;
    std::array<std::string, 11> outs;
    bool ok = false;
    const auto latency = timedOp(tb, i, [&] {
      chip = compileSpanned(useText ? &texts_[d] : nullptr, descs_[d], {}, tb);
      if (!chip) return;
      {
        Span s(tb, Layer::CellFlatCore);
        (void)chip->flatCore();
      }
      ok = emitAll(*chip, outs, tb);
    });
    for (std::size_t k = 0; k < kFormats.size(); ++k) {
      ok = expected_.matches(outputKey(designs_[d], kFormats[k]), outs[k]) && ok;
      outBytes_ += outs[k].size();
    }
    return {latency, ok};
  }

  void beginPhase() override { outBytes_ = 0; }
  void endPhase(std::uint64_t ops, std::map<std::string, double>& out) override {
    out["reps.out_kb"] = static_cast<double>(outBytes_) / 1024.0 / static_cast<double>(ops);
  }

 private:
  WorkloadConfig cfg_;
  ExpectedTable expected_;
  std::vector<Design> designs_;
  std::vector<bb::icl::ChipDesc> descs_;
  std::vector<std::string> texts_;
  std::optional<Deck<std::size_t>> deck_;
  std::uint64_t outBytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeFlow(const WorkloadConfig& cfg) {
  return std::make_unique<Flow>(cfg);
}

void recordFlow(const std::string& dataDir) {
  ExpectedTable t;
  for (const Design& d : designGrid(kGrid)) {
    const bb::icl::ChipDesc desc = d.desc();
    const std::string text = desc.toString();
    std::array<std::string, 11> typed, parsed;
    const auto a = compileSpanned(nullptr, desc, {}, nullptr);
    const auto b = compileSpanned(&text, desc, {}, nullptr);
    if (!a || !b || !emitAll(*a, typed, nullptr) || !emitAll(*b, parsed, nullptr)) {
      throw std::runtime_error("flow: cannot compile and emit " + d.id());
    }
    if (typed != parsed) throw std::runtime_error("flow: frontends disagree on " + d.id());
    for (std::size_t k = 0; k < kFormats.size(); ++k) t.record(outputKey(d, kFormats[k]), typed[k]);
  }
  t.save(dataDir + "/flow.txt");
}

}  // namespace pb
