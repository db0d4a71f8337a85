#include "netlist/spice.hpp"

#include <cctype>

namespace bb::netlist {

namespace {

/// A device line is under 64 bytes on the sample chips (names included);
/// the deck is sized from the device count times this.
constexpr std::size_t kBytesPerDevice = 64;

}  // namespace

void writeSpice(geom::TextBuffer& os, const TransistorNetlist& nl, const SpiceOptions& opts) {
  os.reserve(nl.transistors().size() * kBytesPerDevice + opts.title.size() + 64);
  os << "* " << opts.title << "\n";
  os << ".model nenh nmos (vto=1.0)\n";
  os << ".model ndep nmos (vto=-3.0)\n";
  const double micronsPerUnit = opts.lambdaMicrons / opts.unitsPerLambda;
  // SPICE node names: alnum and underscore kept, anything else becomes
  // '_'; an id naming no net is node 0.
  const auto putNet = [&](geom::Record& rec, int id) {
    if (id < 0 || id >= static_cast<int>(nl.nets().size())) {
      rec << '0';
      return;
    }
    for (const char c : nl.nets()[static_cast<std::size_t>(id)].name) {
      rec << (std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    }
  };
  int i = 0;
  for (const Transistor& t : nl.transistors()) {
    // Mx drain gate source bulk model W= L=
    geom::Record rec(os);
    rec << 'M' << i++ << ' ';
    putNet(rec, t.drain);
    rec << ' ';
    putNet(rec, t.gate);
    rec << ' ';
    putNet(rec, t.source);
    rec << " 0 " << (t.kind == TransKind::Enhancement ? "nenh" : "ndep")
        << " w=" << static_cast<double>(t.width) * micronsPerUnit << "u"
        << " l=" << static_cast<double>(t.length) * micronsPerUnit << "u\n";
    rec.flush();
  }
  os << ".end\n";
}

std::string writeSpice(const TransistorNetlist& nl, const SpiceOptions& opts) {
  geom::TextBuffer out;
  writeSpice(out, nl, opts);
  return out.take();
}

}  // namespace bb::netlist
