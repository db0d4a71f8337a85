/// \file busparts.cpp
/// Compiler-inserted bus infrastructure: the precharge column placed at
/// the start of every bus segment ("bus precharge circuits must be added
/// for each bus. Details like these need not be specified by the user,
/// but are added by the compiler").

#include "elements/busparts.hpp"

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"

namespace bb::elements {

PrechargeResult buildPrechargeColumn(const ElementContext& ctx, const std::string& name,
                                     bool busA, bool busB) {
  SliceBuilder sb(*ctx.lib, name + ".slice", contract().naturalPitch);
  const int u = sb.addPrecharge(busA, busB);
  cell::Cell* slice = sb.finish();
  slice->setDoc("bus precharge slice (phi2 pulls the bus toward Vdd)");
  slice = fitSlice(ctx, slice);

  std::vector<cell::Cell*> slices(static_cast<std::size_t>(ctx.dataWidth), slice);
  PrechargeResult res;
  res.column = stackSlices(*ctx.lib, name, slices);
  res.column->setDoc("precharge column '" + name + "' (" + (busA ? "busA " : "") +
                     (busB ? "busB" : "") + ")");
  res.control = ControlLine{name + ".pre", "1", 2, sb.controlX(u)};
  res.column->addBristle(cell::Bristle{res.control.name, cell::BristleFlavor::Control,
                                       cell::Side::North,
                                       {res.control.xOffset, res.column->height()},
                                       tech::Layer::Poly, lam(2), "1", 2, res.control.name});
  return res;
}

void emitPrechargeLogic(netlist::LogicModel& lm, const std::string& ctlName,
                        const std::string& busPrefix, int dataWidth) {
  const int pre = lm.signal(ctlName);
  for (int i = 0; i < dataWidth; ++i) {
    const int bus = lm.signal(busPrefix, i);
    lm.markBus(bus);
    lm.add(netlist::GateKind::Precharge, {pre}, bus, ctlName);
  }
}

}  // namespace bb::elements
