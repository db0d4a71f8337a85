#include "reps/emitter.hpp"

#include "layout/cif.hpp"
#include "layout/gds.hpp"
#include "layout/svg.hpp"
#include "netlist/spice.hpp"
#include "reps/reps.hpp"
#include "reps/sticks.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <sstream>

namespace bb::reps {

std::string Emitter::emitToString(const core::CompiledChip& chip) const {
  std::ostringstream os;
  emit(chip, os);
  return os.str();
}

std::string Emitter::emitToString(const core::CompiledChip& chip,
                                  const EmitterOptions& opts) const {
  std::ostringstream os;
  emit(chip, os, opts);
  return os.str();
}

namespace {

/// The registry-level window/tile/merge knobs as View parameters.
layout::ViewOptions toViewOptions(const EmitterOptions& o) {
  return layout::ViewOptions{o.window, o.tileSize, o.mergeTiles, o.clipPolygons};
}

/// Declarative backend: name/extension/flags plus an emit function, so
/// each built-in is a table row instead of a subclass. The optional
/// windowed function makes a backend viewport-aware; without one,
/// windowed requests fall back to full emission.
class FnEmitter final : public Emitter {
 public:
  using EmitFn = void (*)(const core::CompiledChip&, std::ostream&);
  using WindowedEmitFn = void (*)(const core::CompiledChip&, std::ostream&,
                                  const EmitterOptions&);

  FnEmitter(std::string_view name, std::string_view ext, std::string_view desc,
            bool binary, EmitFn fn, WindowedEmitFn wfn = nullptr)
      : name_(name), ext_(ext), desc_(desc), binary_(binary), fn_(fn), wfn_(wfn) {}

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] std::string_view fileExtension() const noexcept override { return ext_; }
  [[nodiscard]] bool binary() const noexcept override { return binary_; }
  [[nodiscard]] std::string_view description() const noexcept override { return desc_; }
  void emit(const core::CompiledChip& chip, std::ostream& os) const override {
    fn_(chip, os);
  }
  void emit(const core::CompiledChip& chip, std::ostream& os,
            const EmitterOptions& opts) const override {
    if (wfn_ != nullptr && (opts.windowed() || opts.hierarchical)) {
      wfn_(chip, os, opts);
    } else {
      fn_(chip, os);
    }
  }

 private:
  std::string_view name_, ext_, desc_;
  bool binary_;
  EmitFn fn_;
  WindowedEmitFn wfn_;
};

void emitCif(const core::CompiledChip& chip, std::ostream& os) {
  os << layout::writeCif(*chip.top);
}

void emitCifWindowed(const core::CompiledChip& chip, std::ostream& os,
                     const EmitterOptions& opts) {
  if (opts.hierarchical) {
    if (opts.windowed()) {
      // Lazy viewport: the View resolves only window-touching instances.
      os << layout::writeCif(layout::View{chip.hierTop(), toViewOptions(opts)});
    } else {
      os << layout::writeCif(*chip.top);
    }
    return;
  }
  os << layout::writeCif(chip.flatTop(), toViewOptions(opts));
}

void emitGds(const core::CompiledChip& chip, std::ostream& os) {
  const std::vector<std::uint8_t> bytes = layout::writeGds(*chip.top);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

void emitGdsWindowed(const core::CompiledChip& chip, std::ostream& os,
                     const EmitterOptions& opts) {
  std::vector<std::uint8_t> bytes;
  if (opts.hierarchical) {
    if (opts.windowed()) {
      // Lazy viewport: the View resolves only window-touching instances.
      bytes = layout::writeGds(layout::View{chip.hierTop(), toViewOptions(opts)});
    } else {
      bytes = layout::writeGdsHier(*chip.top);
    }
  } else {
    bytes = layout::writeGds(chip.flatTop(), toViewOptions(opts));
  }
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

void emitSvg(const core::CompiledChip& chip, std::ostream& os) {
  layout::SvgOptions opts;
  opts.title = chip.desc.name;
  opts.pixelsPerUnit = 0.25;
  os << layout::renderSvg(*chip.top, chip.flatTop(), opts);
}

void emitSvgWindowed(const core::CompiledChip& chip, std::ostream& os,
                     const EmitterOptions& eopts) {
  layout::SvgOptions opts;
  opts.title = chip.desc.name;
  opts.pixelsPerUnit = 0.25;
  opts.view = toViewOptions(eopts);
  // The Cell overload keeps the boundary outline and bristle markers of
  // the plain svg path; markers outside the window are skipped there.
  os << layout::renderSvg(*chip.top, chip.flatTop(), opts);
}

void emitSpice(const core::CompiledChip& chip, std::ostream& os) {
  netlist::SpiceOptions opts;
  opts.title = chip.desc.name + " extracted netlist";
  os << netlist::writeSpice(chip.coreNetlist(), opts);
}

void emitSticksSvg(const core::CompiledChip& chip, std::ostream& os) {
  os << sticksSvg(sticksOf(chip.flatCore()));
}

void emitSticksSvgWindowed(const core::CompiledChip& chip, std::ostream& os,
                           const EmitterOptions& opts) {
  os << sticksSvg(sticksOf(chip.flatCore(), toViewOptions(opts)), 0.5, chip.desc.name);
}

template <Representation R>
void emitRepText(const core::CompiledChip& chip, std::ostream& os) {
  os << generateText(chip, R);
}

}  // namespace

void registerBuiltinEmitters(EmitterRegistry& reg) {
  reg.add(std::make_unique<FnEmitter>(
      "cif", "cif", "CIF 2.0 mask set (the 1979 deliverable)", false, &emitCif,
      &emitCifWindowed));
  reg.add(std::make_unique<FnEmitter>(
      "gds", "gds", "GDSII stream for modern downstream tools", true, &emitGds,
      &emitGdsWindowed));
  reg.add(std::make_unique<FnEmitter>(
      "svg", "svg", "human-viewable layout, Mead-Conway colours", false, &emitSvg,
      &emitSvgWindowed));
  reg.add(std::make_unique<FnEmitter>(
      "spice", "sp", "SPICE deck of the extracted core netlist", false, &emitSpice));
  reg.add(std::make_unique<FnEmitter>(
      "text", "txt", "hierarchical user's manual", false,
      &emitRepText<Representation::Text>));
  reg.add(std::make_unique<FnEmitter>(
      "sticks", "txt", "single-width-line topology diagram", false,
      &emitRepText<Representation::Sticks>));
  reg.add(std::make_unique<FnEmitter>(
      "sticks-svg", "svg", "sticks topology diagram, rendered", false,
      &emitSticksSvg, &emitSticksSvgWindowed));
  reg.add(std::make_unique<FnEmitter>(
      "transistors", "txt", "extracted transistor diagram", false,
      &emitRepText<Representation::Transistors>));
  reg.add(std::make_unique<FnEmitter>(
      "block", "txt", "block diagram of buses and core elements", false,
      &emitRepText<Representation::Block>));
  reg.add(std::make_unique<FnEmitter>(
      "logic", "txt", "TTL-style logic model listing", false,
      &emitRepText<Representation::Logic>));
  reg.add(std::make_unique<FnEmitter>(
      "simulation", "txt", "executable logic model summary", false,
      &emitRepText<Representation::Simulation>));
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
                           std::ostream& os) const {
  const Emitter* e = find(name);
  if (e == nullptr) return false;
  e->emit(chip, os);
  return true;
}

bool EmitterRegistry::emit(const core::CompiledChip& chip, std::string_view name,
                           std::ostream& os, const EmitterOptions& opts) const {
  const Emitter* e = find(name);
  if (e == nullptr) return false;
  e->emit(chip, os, opts);
  return true;
}

}  // namespace bb::reps
