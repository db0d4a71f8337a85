/// \file emitter.hpp
/// One interface for every output path. The seed scattered five ways of
/// getting artifacts out of a compiled chip (CIF and GDS writers, the
/// SVG renderer, the SPICE deck, and the text/sticks/block
/// representations) behind five unrelated signatures; the `Emitter`
/// registry unifies them: every backend is discoverable by name and
/// writes to a `std::ostream`, so tools can enumerate and select output
/// formats at run time.

#pragma once

#include "core/chip.hpp"
#include "geom/geometry.hpp"

#include <iosfwd>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bb::reps {

/// Windowed-emission parameters, plumbed through the registry so any
/// emitter can stream a viewport of a `CompileSession` result. The
/// geometry backends (cif, gds, svg, sticks-svg) honour these via
/// `layout::View`; non-geometry backends (spice, text, ...) ignore them.
/// Default-constructed options mean full-chip emission and are
/// bit-identical to the plain `emit(chip, os)` path.
struct EmitterOptions {
  /// Viewport in layout coordinates (chip coordinates for cif/gds/svg,
  /// core coordinates for sticks-svg). Unset: the whole artwork.
  std::optional<geom::Rect> window;
  /// Streaming tile pitch; 0 = one tile covering the window.
  geom::Coord tileSize = 0;
  /// Merge each tile's rects into disjoint maximal pieces.
  bool mergeTiles = false;
  /// Clip window-crossing polygons to the window (`geom::poly`); off
  /// keeps the pre-clip reference behavior (bbox filter, emit whole).
  bool clipPolygons = true;
  /// Route geometry through the chip's hierarchical index instead of the
  /// full flatten. Full-chip cif/gds become `writeCif(Cell)`/`writeGdsHier`
  /// (symbol calls / SREF+AREF, never a flattened copy); windowed cif/gds
  /// open the `View` over `CompiledChip::hierTop()`, so the viewport
  /// resolves only window-touching instances. Non-geometry backends (and
  /// svg, which renders from the cell tree already) ignore it.
  bool hierarchical = false;

  /// True when any windowing/streaming behaviour was requested.
  [[nodiscard]] bool windowed() const noexcept {
    return window.has_value() || tileSize > 0 || mergeTiles;
  }
};

class Emitter {
 public:
  virtual ~Emitter() = default;

  /// Registry key, e.g. "cif", "gds", "svg", "spice", "text".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Suggested file extension (no dot), e.g. "cif", "sp", "svg".
  [[nodiscard]] virtual std::string_view fileExtension() const noexcept = 0;
  /// True when the output is a byte stream (GDSII), not text.
  [[nodiscard]] virtual bool binary() const noexcept { return false; }
  /// One-line human description for listings.
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// Write the chip's artifact in this format.
  virtual void emit(const core::CompiledChip& chip, std::ostream& os) const = 0;

  /// Windowed emission. The default implementation ignores the options
  /// and emits the full artifact, so emitters without a geometric
  /// output need not override; the built-in geometry backends stream
  /// the requested viewport through `layout::View`.
  virtual void emit(const core::CompiledChip& chip, std::ostream& os,
                    const EmitterOptions& opts) const {
    (void)opts;
    emit(chip, os);
  }

  /// Convenience: emit to a string.
  [[nodiscard]] std::string emitToString(const core::CompiledChip& chip) const;
  [[nodiscard]] std::string emitToString(const core::CompiledChip& chip,
                                         const EmitterOptions& opts) const;
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

  /// Emit by name; false when the name is unknown.
  bool emit(const core::CompiledChip& chip, std::string_view name, std::ostream& os) const;
  /// Windowed emit by name — streams the viewport described by `opts`
  /// (geometry backends honour it, others emit in full).
  bool emit(const core::CompiledChip& chip, std::string_view name, std::ostream& os,
            const EmitterOptions& opts) const;

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Emitter>> emitters_;
};

/// Register every built-in backend into `reg` (used by `global()`;
/// exposed so tests can build an isolated registry).
void registerBuiltinEmitters(EmitterRegistry& reg);

}  // namespace bb::reps
