#include "reps/emitter.hpp"

#include "geom/text_buffer.hpp"
#include "layout/cif.hpp"
#include "layout/gds.hpp"
#include "layout/svg.hpp"
#include "netlist/spice.hpp"
#include "reps/blockrep.hpp"
#include "reps/sticks.hpp"
#include "reps/textrep.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>

namespace bb::reps {

std::string Emitter::emitToString(const core::CompiledChip& chip,
                                  const EmitterOptions& opts) const {
  geom::TextBuffer out;
  emit(chip, out, opts);
  return out.take();
}

namespace {

/// Declarative backend: name, extension, description and one emit
/// function, so each built-in is a table row instead of a subclass.
class FnEmitter final : public Emitter {
 public:
  using EmitFn = void (*)(const core::CompiledChip&, geom::TextBuffer&, const EmitterOptions&);

  FnEmitter(std::string_view name, std::string_view ext, std::string_view desc, EmitFn fn)
      : name_(name), ext_(ext), desc_(desc), fn_(fn) {}

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] std::string_view fileExtension() const noexcept override { return ext_; }
  [[nodiscard]] std::string_view description() const noexcept override { return desc_; }
  void emit(const core::CompiledChip& chip, geom::TextBuffer& out,
            const EmitterOptions& opts) const override {
    fn_(chip, out, opts);
  }

 private:
  std::string_view name_, ext_, desc_;
  EmitFn fn_;
};

/// The View a windowed cif/gds request streams: over the hierarchical
/// index (only window-touching instances are resolved) or the flatten.
layout::View viewOf(const core::CompiledChip& chip, const EmitterOptions& opts) {
  if (opts.hierarchical) return layout::View{chip.hierTop(), opts};
  return layout::View{chip.flatTop(), opts};
}

void emitCif(const core::CompiledChip& chip, geom::TextBuffer& out, const EmitterOptions& opts) {
  if (opts.windowed()) {
    layout::writeCif(out, viewOf(chip, opts));
  } else {
    layout::writeCif(out, *chip.top);
  }
}

void emitGds(const core::CompiledChip& chip, geom::TextBuffer& out, const EmitterOptions& opts) {
  if (opts.windowed()) {
    layout::writeGds(out, viewOf(chip, opts));
  } else if (opts.hierarchical) {
    layout::writeGdsHier(out, *chip.top);
  } else {
    layout::writeGds(out, *chip.top);
  }
}

void emitSvg(const core::CompiledChip& chip, geom::TextBuffer& out, const EmitterOptions& opts) {
  layout::SvgOptions svg;
  svg.title = chip.desc.name;
  svg.pixelsPerUnit = 0.25;
  svg.view = opts;
  // The Cell overload draws the boundary outline and bristle markers;
  // markers outside a window are skipped there.
  layout::renderSvg(out, *chip.top, chip.flatTop(), svg);
}

void emitSpice(const core::CompiledChip& chip, geom::TextBuffer& out, const EmitterOptions&) {
  netlist::SpiceOptions opts;
  opts.title = chip.desc.name + " extracted netlist";
  netlist::writeSpice(out, chip.coreNetlist(), opts);
}

void emitText(const core::CompiledChip& chip, geom::TextBuffer& out, const EmitterOptions&) {
  userManual(out, chip);
}

void emitSticks(const core::CompiledChip& chip, geom::TextBuffer& out, const EmitterOptions&) {
  sticksText(out, chip.flatCore());
}

/// Sticks of the core, windowed in core coordinates.
void emitSticksSvg(const core::CompiledChip& chip, geom::TextBuffer& out,
                   const EmitterOptions& opts) {
  sticksSvg(out, chip.flatCore(), opts);
}

/// The core's netlist (the decoder's stylized loads extract too, but the
/// core is the electrically faithful part).
void emitTransistors(const core::CompiledChip& chip, geom::TextBuffer& out,
                     const EmitterOptions&) {
  out << "extracted from core artwork:\n";
  chip.coreNetlist().toText(out);
}

void emitBlock(const core::CompiledChip& chip, geom::TextBuffer& out, const EmitterOptions&) {
  blockDiagram(out, chip);
  out << '\n';
  logicalDiagram(out, chip);
}

void emitLogic(const core::CompiledChip& chip, geom::TextBuffer& out, const EmitterOptions&) {
  chip.logic.toText(out);
}

void emitSimulation(const core::CompiledChip& chip, geom::TextBuffer& out,
                    const EmitterOptions&) {
  out << "simulation model: " << chip.logic.gates().size() << " gates over "
      << chip.logic.signalCount() << " signals\n";
  for (const auto& [kind, n] : chip.logic.histogram()) {
    out << "  " << kind << ": " << n << "\n";
  }
  out << "drive mc0.." << chip.desc.microcode.width - 1
      << " and clock phi1/phi2 to execute microcode; buses busA<i>/busB<i>.\n";
}

}  // namespace

void registerBuiltinEmitters(EmitterRegistry& reg) {
  const struct {
    std::string_view name, ext, desc;
    FnEmitter::EmitFn fn;
  } builtins[] = {
      {"cif", "cif", "CIF 2.0 mask set (the 1979 deliverable)", &emitCif},
      {"gds", "gds", "GDSII stream for modern downstream tools", &emitGds},
      {"svg", "svg", "human-viewable layout, Mead-Conway colours", &emitSvg},
      {"spice", "sp", "SPICE deck of the extracted core netlist", &emitSpice},
      {"text", "txt", "hierarchical user's manual", &emitText},
      {"sticks", "txt", "single-width-line topology diagram", &emitSticks},
      {"sticks-svg", "svg", "sticks topology diagram, rendered", &emitSticksSvg},
      {"transistors", "txt", "extracted transistor diagram", &emitTransistors},
      {"block", "txt", "block diagram of buses and core elements", &emitBlock},
      {"logic", "txt", "TTL-style logic model listing", &emitLogic},
      {"simulation", "txt", "executable logic model summary", &emitSimulation},
  };
  for (const auto& b : builtins) {
    reg.add(std::make_unique<FnEmitter>(b.name, b.ext, b.desc, b.fn));
  }
}

EmitterRegistry& EmitterRegistry::global() {
  static EmitterRegistry reg;  // holds a mutex, so fill in place (no move)
  static const bool initialized = [] {
    registerBuiltinEmitters(reg);
    return true;
  }();
  (void)initialized;
  return reg;
}

void EmitterRegistry::add(std::unique_ptr<Emitter> emitter) {
  if (emitter == nullptr) return;
  const std::unique_lock<std::shared_mutex> lock(mu_);
  emitters_.push_back(std::move(emitter));
}

const Emitter* EmitterRegistry::find(std::string_view name) const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  // Latest registration wins, so a user emitter can shadow a built-in.
  for (auto it = emitters_.rbegin(); it != emitters_.rend(); ++it) {
    if ((*it)->name() == name) return it->get();
  }
  return nullptr;
}

std::vector<std::string_view> EmitterRegistry::names() const {
  std::vector<std::string_view> out;
  {
    const std::shared_lock<std::shared_mutex> lock(mu_);
    out.reserve(emitters_.size());
    for (const auto& e : emitters_) out.push_back(e->name());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t EmitterRegistry::size() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  return emitters_.size();
}

bool EmitterRegistry::emit(const core::CompiledChip& chip, std::string_view name,
                           std::ostream& os, const EmitterOptions& opts) const {
  const Emitter* e = find(name);
  if (e == nullptr) return false;
  geom::TextBuffer out;
  e->emit(chip, out, opts);
  const std::string_view bytes = out.view();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return true;
}

}  // namespace bb::reps
