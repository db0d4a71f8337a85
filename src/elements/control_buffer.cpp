/// \file control_buffer.cpp
/// Pass 2 support: assembly of the control-buffer row that sits along
/// the core's north edge. "First, control buffers to drive the control
/// lines are inserted along the edge of the core. The timing is also
/// added to the control signals by the buffers."

#include "elements/control_buffer.hpp"

#include "elements/slicekit.hpp"

namespace bb::elements {

BufferRow buildBufferRow(cell::CellLibrary& lib, const std::string& name,
                         const std::vector<ControlLine>& controls, geom::Coord rowWidth) {
  BufferRow row;
  row.cell = lib.create(name);
  cell::Cell* ph1 = buildControlBuffer(lib, 1);
  cell::Cell* ph2 = buildControlBuffer(lib, 2);
  const geom::Coord h = bufferRowHeight();

  // The two metal clock distribution lines run the full row width; each
  // buffer taps its phase's line.
  for (int phase = 1; phase <= 2; ++phase) {
    const geom::Coord y0 = bufferClockLineY0(phase);
    row.cell->addRect(tech::Layer::Metal, geom::Rect{0, y0, rowWidth, y0 + lam(3)});
  }

  for (const ControlLine& cl : controls) {
    // Centre the 14L buffer cell on the control line's x.
    const geom::Coord x = cl.xOffset - lam(7);
    row.cell->addInstance(cl.phase == 1 ? ph1 : ph2, geom::Transform::translate({x, 0}),
                          "buf:" + cl.name);
  }

  // The clock lines request clock-driver pads at the row's east end.
  for (int phase = 1; phase <= 2; ++phase) {
    const geom::Coord y0 = bufferClockLineY0(phase);
    cell::Bristle b;
    b.name = phase == 1 ? "phi1" : "phi2";
    b.flavor = cell::BristleFlavor::PadClock;
    b.side = cell::Side::East;
    b.pos = {rowWidth, y0 + lam(1)};
    b.layer = tech::Layer::Metal;
    b.width = lam(3);
    b.net = b.name;
    row.cell->addBristle(std::move(b));
  }

  row.cell->setBoundary(geom::Rect{0, 0, rowWidth, h});
  row.cell->setDoc("control buffer row: " + std::to_string(controls.size()) +
                   " clock-qualified control drivers");
  row.height = h;
  return row;
}

void emitBufferLogic(netlist::LogicModel& lm, const ControlLine& cl,
                     std::string_view decodeSignal) {
  const int dec = lm.signal(decodeSignal);
  const int phi = lm.signal(cl.phase == 1 ? "phi1" : "phi2");
  const int out = lm.signal(cl.name);
  lm.add(netlist::GateKind::And, {dec, phi}, out, "buf:" + cl.name);
}

}  // namespace bb::elements
