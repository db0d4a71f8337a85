/// \file layers.hpp
/// The nMOS mask layer stack of Mead & Conway (1978), the process Bristle
/// Blocks compiled for. Layer identities, CIF names, GDS numbers, display
/// colors and electrical roles live here so every other module agrees on
/// what "poly" means.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace bb::tech {

/// nMOS mask layers (Mead–Conway naming).
enum class Layer : std::uint8_t {
  Diffusion = 0,  ///< ND — n+ diffusion (green)
  Poly,           ///< NP — polysilicon (red)
  Metal,          ///< NM — metal (blue)
  Implant,        ///< NI — depletion implant (yellow)
  Contact,        ///< NC — contact cut (black)
  Buried,         ///< NB — buried contact (brown)
  Glass,          ///< NG — overglass openings (gray)
};

inline constexpr std::size_t kLayerCount = 7;

inline constexpr std::array<Layer, kLayerCount> kAllLayers = {
    Layer::Diffusion, Layer::Poly,   Layer::Metal, Layer::Implant,
    Layer::Contact,   Layer::Buried, Layer::Glass};

/// Mead–Conway CIF layer name (ND, NP, NM, NI, NC, NB, NG).
[[nodiscard]] std::string_view cifName(Layer l) noexcept;

/// Parse a CIF layer name back to a Layer.
[[nodiscard]] std::optional<Layer> layerFromCif(std::string_view name) noexcept;

/// GDSII layer number assignment (our own stable mapping).
[[nodiscard]] int gdsNumber(Layer l) noexcept;

/// Human-readable name ("diffusion", "poly", ...).
[[nodiscard]] std::string_view layerName(Layer l) noexcept;

/// Mead–Conway colour-pencil convention, as an SVG colour.
[[nodiscard]] std::string_view displayColor(Layer l) noexcept;

/// Electrical constants for the 1978-vintage nMOS process; used by the
/// power-estimation hooks of procedural cells.
struct Electrical {
  double vdd_volts = 5.0;
  /// Sheet resistance, ohms/square.
  double rs_diffusion = 10.0;
  double rs_poly = 50.0;
  double rs_metal = 0.03;
  /// Area capacitance, fF per lambda^2 (lambda = 2.5um).
  double cap_gate = 2.5;
  double cap_diffusion = 0.6;
  double cap_metal = 0.2;
  /// Static current of one depletion pull-up at ratio 4:1, microamps.
  double pullup_current_ua = 50.0;
};

[[nodiscard]] const Electrical& electrical() noexcept;

}  // namespace bb::tech
