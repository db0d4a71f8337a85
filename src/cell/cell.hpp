/// \file cell.hpp
/// The procedural cell model.
///
/// The fundamental unit of Bristle Blocks is the *cell*: geometric
/// primitives (boxes, lines, polygons on mask layers) plus references to
/// other cells. Unlike a database cell — a static picture — a Bristle
/// Blocks cell is produced by a little program and carries the hooks that
/// make it computable: *bristles* (typed connection points along its
/// edges), *stretch lines* (designated corridors along which the cell can
/// be stretched without violating design rules), and a *power demand*
/// that the compiler aggregates when sizing supply rails.

#pragma once

#include "geom/geometry.hpp"
#include "geom/transform.hpp"
#include "tech/layers.hpp"

#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace bb::cell {

/// What a connection point is *for*. The flavor decides which compiler
/// pass binds it: bus bristles abut in Pass 1, control bristles get decode
/// buffers in Pass 2, pad-request bristles get pads and routing in Pass 3.
enum class BristleFlavor : std::uint8_t {
  BusA,       ///< upper data bus
  BusB,       ///< lower data bus
  Control,    ///< control line driven by a decoder buffer
  Power,      ///< Vdd rail
  Ground,     ///< GND rail
  Clock1,     ///< phi-1 (bus transfer phase)
  Clock2,     ///< phi-2 (element operation phase)
  PadIn,      ///< requests an input pad
  PadOut,     ///< requests an output pad
  PadBidir,   ///< requests a bidirectional pad
  PadVdd,     ///< requests the Vdd supply pad
  PadGnd,     ///< requests the GND supply pad
  PadClock,   ///< requests a clock-driver pad
  Microcode,  ///< decoder input bit (becomes a pad in Pass 3)
  Probe,      ///< prototype-only observation point (conditional assembly)
};

[[nodiscard]] std::string_view flavorName(BristleFlavor f) noexcept;
/// True for flavors that request a pad from Pass 3.
[[nodiscard]] bool isPadRequest(BristleFlavor f) noexcept;

/// Which edge of the cell the bristle sits on.
enum class Side : std::uint8_t { North, East, South, West };

[[nodiscard]] std::string_view sideName(Side s) noexcept;

/// A connection point — a "bristle" along a cell edge.
///
/// Bristles keep local data local and global data global: the cell states
/// *where* it must be contacted and *what kind* of thing must arrive
/// there; the compiler decides everything global (which pad, where placed,
/// how routed) later.
struct Bristle {
  std::string name;
  BristleFlavor flavor = BristleFlavor::Control;
  Side side = Side::North;
  geom::Point pos;           ///< position on the cell boundary (cell coords)
  tech::Layer layer = tech::Layer::Metal;
  geom::Coord width = 0;     ///< connecting wire width
  /// For Control: the decode function over microcode fields, e.g.
  /// "aluop==2" — one entry of Pass 2's text array.
  std::string decode;
  /// For Control: which clock phase qualifies the signal (1 or 2).
  int timingPhase = 1;
  /// For signals that must reach the sim/logic model: net name.
  std::string net;
};

/// One mask shape: a rectangle, polygon or wire on a layer.
struct Shape {
  tech::Layer layer = tech::Layer::Metal;
  std::variant<geom::Rect, geom::Polygon, geom::Path> geo;

  [[nodiscard]] geom::Rect bbox() const noexcept;
};

class Cell;

/// A placed reference to another cell.
struct Instance {
  const Cell* cell = nullptr;  ///< non-owning; a CellLibrary owns all cells
  geom::Transform placement;
  std::string name;
};

/// Axis along which a stretch line cuts the cell.
/// `X` = a vertical line at x = at (stretching widens the cell in x);
/// `Y` = a horizontal line at y = at (stretching grows the cell in y).
enum class StretchAxis : std::uint8_t { X, Y };

/// A declared stretch line. Generators place them in corridors free of
/// sub-instances so stretching is always the paper's "painless operation".
struct StretchLine {
  StretchAxis axis = StretchAxis::Y;
  geom::Coord at = 0;
  std::string name;  ///< e.g. "pitch", "vdd-widen"
};

/// One stretch applied along an axis: material at-or-beyond coordinate
/// `at` moves by `delta` (>= 0). See cell/stretch.hpp.
struct StretchCut {
  geom::Coord at = 0;
  geom::Coord delta = 0;
};

/// A procedural cell's materialized form.
///
/// Element generators build `Cell`s; the compiler stretches, places and
/// connects them. A cell's *boundary* is its abutment box — the contract
/// area neighbours may touch — which can be larger than the shape bbox.
class Cell {
 public:
  explicit Cell(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // --- construction -------------------------------------------------
  void addRect(tech::Layer l, const geom::Rect& r) { shapes_.push_back({l, r}); }
  void addPolygon(tech::Layer l, geom::Polygon p) { shapes_.emplace_back(l, std::move(p)); }
  void addPath(tech::Layer l, geom::Path p) { shapes_.emplace_back(l, std::move(p)); }
  /// Convenience: contact cut + surround on both connected layers at `center`.
  void addContact(geom::Point center, tech::Layer lower, tech::Layer upper);
  void addInstance(const Cell* c, geom::Transform t, std::string instName = {});
  void addBristle(Bristle b) { bristles_.push_back(std::move(b)); }
  void addStretch(StretchAxis axis, geom::Coord at, std::string sname = {});
  void setBoundary(const geom::Rect& r) noexcept { boundary_ = r; hasBoundary_ = true; }
  /// Static supply current drawn by this cell's own pull-ups, in uA
  /// (sub-instances are aggregated by powerDemand()).
  void setOwnPower(double ua) noexcept { ownPower_ua_ = ua; }
  void addOwnPower(double ua) noexcept { ownPower_ua_ += ua; }
  /// One-line description used by the Text representation.
  void setDoc(std::string doc) { doc_ = std::move(doc); }

  // --- inspection ----------------------------------------------------
  [[nodiscard]] const std::vector<Shape>& shapes() const noexcept { return shapes_; }
  [[nodiscard]] const std::vector<Instance>& instances() const noexcept { return instances_; }
  [[nodiscard]] const std::vector<Bristle>& bristles() const noexcept { return bristles_; }
  [[nodiscard]] std::vector<Bristle>& bristles() noexcept { return bristles_; }
  [[nodiscard]] const std::vector<StretchLine>& stretchLines() const noexcept {
    return stretches_;
  }
  [[nodiscard]] const std::string& doc() const noexcept { return doc_; }

  /// The abutment box: explicit boundary if set, else the geometric bbox.
  [[nodiscard]] geom::Rect boundary() const noexcept;
  /// True when `boundary()` is a declared abutment contract rather than
  /// the implicit shape bbox (lint's boundary exemption needs to know).
  [[nodiscard]] bool hasExplicitBoundary() const noexcept { return hasBoundary_; }
  [[nodiscard]] geom::Coord width() const noexcept { return boundary().width(); }
  [[nodiscard]] geom::Coord height() const noexcept { return boundary().height(); }

  /// Static current of this cell's own pull-ups in uA (see setOwnPower).
  [[nodiscard]] double ownPower() const noexcept { return ownPower_ua_; }
  /// Total static current in uA: own pull-ups plus all sub-instances.
  [[nodiscard]] double powerDemand() const noexcept;

  /// Count of shapes including those in sub-instances (hierarchy weight).
  [[nodiscard]] std::size_t totalShapeCount() const noexcept;

  // Stretch needs to rewrite everything; it lives in stretch.cpp and is a
  // friend so the cell's invariants stay in one file.
  friend Cell stretched(const Cell& c, StretchAxis axis, std::span<const StretchCut> cuts,
                        std::string newName);
  // Library cloning must retarget Instance::cell pointers into the clone.
  friend class CellLibrary;

 private:
  /// Bounding box of all shapes and (transformed) sub-instances.
  [[nodiscard]] geom::Rect shapeBBox() const noexcept;

  std::string name_;
  std::vector<Shape> shapes_;
  std::vector<Instance> instances_;
  std::vector<Bristle> bristles_;
  std::vector<StretchLine> stretches_;
  geom::Rect boundary_{};
  bool hasBoundary_ = false;
  double ownPower_ua_ = 0.0;
  std::string doc_;
};

}  // namespace bb::cell
