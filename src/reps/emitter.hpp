/// \file emitter.hpp
/// The one way out of a compiled chip. The paper's compiler turns a chip
/// into seven representations (Layout, Sticks, Transistors, Logic, Text,
/// Simulation, Block); the `Emitter` registry writes all of them, in
/// eleven formats: layout as cif, gds and svg; sticks as sticks and
/// sticks-svg; transistors as transistors and the spice deck; and text,
/// logic, simulation and block one each. Every backend is discoverable
/// by name, appends to one `geom::TextBuffer` through one `emit`, and
/// takes one `EmitterOptions`, so tools enumerate and select formats at
/// run time and stream viewports through the same call.

#pragma once

#include "core/chip.hpp"
#include "geom/text_buffer.hpp"
#include "layout/view.hpp"

#include <iosfwd>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bb::reps {

/// The window/tile/merge fields of `layout::ViewOptions` plus the
/// hierarchical switch. The geometry backends honour them through
/// `layout::View` (cif, gds and svg in chip coordinates, sticks-svg in
/// core coordinates); the others ignore them. Default-constructed
/// options mean full-chip emission.
struct EmitterOptions : layout::ViewOptions {
  /// Route geometry through the chip's hierarchical index instead of the
  /// full flatten. Full-chip gds becomes `writeGdsHier` (SREF+AREF);
  /// windowed cif/gds open the `View` over `CompiledChip::hierTop()`, so
  /// the viewport resolves only window-touching instances. Full-chip cif
  /// is the symbol-call writer either way; the other backends ignore it.
  bool hierarchical = false;

  /// True when a window, tiling or merging was requested.
  [[nodiscard]] bool windowed() const noexcept {
    return window.has_value() || tileSize > 0 || merge;
  }
};

class Emitter {
 public:
  virtual ~Emitter() = default;

  /// Registry key, e.g. "cif", "gds", "svg", "spice", "text".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Suggested file extension (no dot), e.g. "cif", "sp", "svg".
  [[nodiscard]] virtual std::string_view fileExtension() const noexcept = 0;
  /// One-line human description for listings.
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// Append the chip's artifact in this format to `out`; geometry
  /// backends stream the viewport `opts` describes. The built-in writers
  /// size `out` before writing and fill it a record at a time.
  virtual void emit(const core::CompiledChip& chip, geom::TextBuffer& out,
                    const EmitterOptions& opts) const = 0;

  /// Emit into one buffer and hand that buffer over as the string, with
  /// no copy. The one way a chip becomes a string: the service's emit
  /// and viewport payloads come from it.
  [[nodiscard]] std::string emitToString(const core::CompiledChip& chip,
                                         const EmitterOptions& opts = {}) const;
};

/// Name -> emitter. The global registry is pre-populated with every
/// built-in backend; callers may add their own (a same-name emitter
/// shadows the earlier one). Lookups take a shared lock and
/// registration an exclusive one, so any number of service/batch
/// threads can resolve and emit concurrently without serializing on
/// the registry, even while another thread registers; emitters are
/// never destroyed while the registry lives, so a found pointer stays
/// valid.
class EmitterRegistry {
 public:
  EmitterRegistry() = default;

  /// The process-wide registry with all built-in emitters registered.
  [[nodiscard]] static EmitterRegistry& global();

  /// Register an emitter under its own name (shadows a same-name one).
  void add(std::unique_ptr<Emitter> emitter);

  /// Null when no emitter has that name.
  [[nodiscard]] const Emitter* find(std::string_view name) const;
  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string_view> names() const;
  [[nodiscard]] std::size_t size() const;

  /// Emit by name into one buffer, then write it to `os` in one call;
  /// false when the name is unknown.
  bool emit(const core::CompiledChip& chip, std::string_view name, std::ostream& os,
            const EmitterOptions& opts = {}) const;

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Emitter>> emitters_;
};

/// Register every built-in backend into `reg` (used by `global()`;
/// exposed so tests can build an isolated registry).
void registerBuiltinEmitters(EmitterRegistry& reg);

}  // namespace bb::reps
