#include "tech/rules.hpp"

namespace bb::tech {

using geom::lambda;

const RuleDeck& meadConwayRules() {
  static const RuleDeck deck = [] {
    RuleDeck d;
    d.widths = {
        {Layer::Diffusion, lambda(2), "W.diff.2"},
        {Layer::Poly, lambda(2), "W.poly.2"},
        {Layer::Metal, lambda(3), "W.metal.3"},
        {Layer::Implant, lambda(2), "W.implant.2"},
        {Layer::Contact, lambda(2), "W.contact.2"},
    };
    d.spacings = {
        {Layer::Diffusion, Layer::Diffusion, lambda(3), "S.diff.diff.3"},
        {Layer::Poly, Layer::Poly, lambda(2), "S.poly.poly.2"},
        {Layer::Metal, Layer::Metal, lambda(3), "S.metal.metal.3"},
        {Layer::Poly, Layer::Diffusion, lambda(1), "S.poly.diff.1"},
        {Layer::Contact, Layer::Contact, lambda(2), "S.cut.cut.2"},
    };
    d.composite = CompositeRules{
        .polyGateExtension = lambda(2),
        .diffGateExtension = lambda(2),
        .contactSize = lambda(2),
        .contactSurround = lambda(1),
        .implantGateOverlap = geom::halfLambda(3),  // 1.5 lambda
    };
    return d;
  }();
  return deck;
}

}  // namespace bb::tech
