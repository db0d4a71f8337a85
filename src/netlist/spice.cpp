#include "netlist/spice.hpp"

#include "geom/text_buffer.hpp"

#include <cctype>

namespace bb::netlist {

std::string writeSpice(const TransistorNetlist& nl, const SpiceOptions& opts) {
  geom::TextBuffer os;
  os << "* " << opts.title << "\n";
  os << ".model nenh nmos (vto=1.0)\n";
  os << ".model ndep nmos (vto=-3.0)\n";
  const double micronsPerUnit = opts.lambdaMicrons / opts.unitsPerLambda;
  auto netName = [&](int id) -> std::string {
    if (id < 0 || id >= static_cast<int>(nl.nets().size())) return "0";
    std::string n = nl.nets()[static_cast<std::size_t>(id)].name;
    // SPICE node names: keep alnum and underscore.
    for (char& c : n) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return n;
  };
  int i = 0;
  for (const Transistor& t : nl.transistors()) {
    // Mx drain gate source bulk model W= L=
    os << 'M' << i++ << ' ' << netName(t.drain) << ' ' << netName(t.gate) << ' '
       << netName(t.source) << " 0 " << (t.kind == TransKind::Enhancement ? "nenh" : "ndep")
       << " w=" << static_cast<double>(t.width) * micronsPerUnit << "u"
       << " l=" << static_cast<double>(t.length) * micronsPerUnit << "u\n";
  }
  os << ".end\n";
  return os.take();
}

}  // namespace bb::netlist
