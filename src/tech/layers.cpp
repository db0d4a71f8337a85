#include "tech/layers.hpp"

namespace bb::tech {

std::string_view cifName(Layer l) noexcept {
  switch (l) {
    case Layer::Diffusion: return "ND";
    case Layer::Poly: return "NP";
    case Layer::Metal: return "NM";
    case Layer::Implant: return "NI";
    case Layer::Contact: return "NC";
    case Layer::Buried: return "NB";
    case Layer::Glass: return "NG";
  }
  return "??";
}

std::optional<Layer> layerFromCif(std::string_view name) noexcept {
  for (Layer l : kAllLayers) {
    if (cifName(l) == name) return l;
  }
  return std::nullopt;
}

int gdsNumber(Layer l) noexcept {
  switch (l) {
    case Layer::Diffusion: return 1;
    case Layer::Poly: return 2;
    case Layer::Metal: return 3;
    case Layer::Implant: return 4;
    case Layer::Contact: return 5;
    case Layer::Buried: return 6;
    case Layer::Glass: return 7;
  }
  return 0;
}

std::string_view layerName(Layer l) noexcept {
  switch (l) {
    case Layer::Diffusion: return "diffusion";
    case Layer::Poly: return "poly";
    case Layer::Metal: return "metal";
    case Layer::Implant: return "implant";
    case Layer::Contact: return "contact";
    case Layer::Buried: return "buried";
    case Layer::Glass: return "glass";
  }
  return "?";
}

std::string_view displayColor(Layer l) noexcept {
  switch (l) {
    case Layer::Diffusion: return "#2e8b57";  // green
    case Layer::Poly: return "#d03030";       // red
    case Layer::Metal: return "#3060d0";      // blue
    case Layer::Implant: return "#d0c020";    // yellow
    case Layer::Contact: return "#202020";    // black
    case Layer::Buried: return "#8b5a2b";     // brown
    case Layer::Glass: return "#909090";      // gray
  }
  return "#000000";
}

const Electrical& electrical() noexcept {
  static const Electrical e{};
  return e;
}

}  // namespace bb::tech
