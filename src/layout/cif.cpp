#include "layout/cif.hpp"

#include "geom/text_buffer.hpp"

#include <map>
#include <sstream>
#include <vector>

namespace bb::layout {

namespace {

using cell::Cell;
using geom::Orientation;

/// Collect cells bottom-up (children before parents), each once.
void collect(const Cell& c, std::vector<const Cell*>& order,
             std::map<const Cell*, int>& ids) {
  if (ids.contains(&c)) return;
  for (const cell::Instance& i : c.instances()) collect(*i.cell, order, ids);
  ids[&c] = static_cast<int>(order.size()) + 1;  // CIF symbols are 1-based
  order.push_back(&c);
}

/// CIF transform suffix for one of our D4 orientations. CIF applies the
/// listed operations left to right; CIF MX negates x, MY negates y.
std::string_view cifOrient(Orientation o) {
  switch (o) {
    case Orientation::R0: return "";
    case Orientation::R90: return " R 0 1";
    case Orientation::R180: return " R -1 0";
    case Orientation::R270: return " R 0 -1";
    case Orientation::MX: return " M Y";        // our MX: y -> -y
    case Orientation::MX90: return " M Y R 0 1";
    case Orientation::MY: return " M X";        // our MY: x -> -x
    case Orientation::MY90: return " M X R 0 1";
  }
  return "";
}

/// A box, call or symbol line is under 32 bytes on the sample chips; a
/// writer sizes its buffer from its record count times this.
constexpr std::size_t kBytesPerRecord = 32;

void putBox(geom::Record& rec, const geom::Rect& r) {
  rec << "B " << r.width() << ' ' << r.height() << ' ' << r.center().x << ' ' << r.center().y
      << ";\n";
}

void putPolygon(geom::Record& rec, const geom::Polygon& p) {
  rec << 'P';
  for (geom::Point q : p.pts) rec << ' ' << q.x << ' ' << q.y;
  rec << ";\n";
}

}  // namespace

void writeCif(geom::TextBuffer& os, const Cell& top, const CifOptions& opts) {
  std::vector<const Cell*> order;
  std::map<const Cell*, int> ids;
  collect(top, order, ids);
  std::size_t records = 0;
  for (const Cell* c : order) records += c->shapes().size() + c->instances().size() + 4;
  os.reserve(records * kBytesPerRecord);

  if (opts.comments) {
    os << "( Bristle Blocks silicon compiler -- CIF 2.0 mask set );\n";
    os << "( top cell: " << top.name() << " );\n";
  }
  for (const Cell* c : order) {
    os << "DS " << ids[c] << ' ' << opts.scaleNum << ' ' << opts.scaleDen << ";\n";
    if (opts.symbolNames) os << "9 " << c->name() << ";\n";
    // Group shapes by layer to minimize L commands.
    for (tech::Layer l : tech::kAllLayers) {
      bool wroteLayer = false;
      auto needLayer = [&] {
        if (!wroteLayer) {
          os << "L " << tech::cifName(l) << ";\n";
          wroteLayer = true;
        }
      };
      for (const cell::Shape& s : c->shapes()) {
        if (s.layer != l) continue;
        needLayer();
        geom::Record rec(os);
        std::visit(
            [&](const auto& g) {
              using T = std::decay_t<decltype(g)>;
              if constexpr (std::is_same_v<T, geom::Rect>) {
                // B length width xcenter ycenter — CIF centers may be
                // half-integral in layout units; double the coordinate
                // system would be needed. Our generators keep all rects
                // even-sized on the quarter-lambda grid, so centers are
                // exact.
                putBox(rec, g);
              } else if constexpr (std::is_same_v<T, geom::Polygon>) {
                putPolygon(rec, g);
              } else {
                rec << "W " << g.width;
                for (geom::Point p : g.pts) rec << ' ' << p.x << ' ' << p.y;
                rec << ";\n";
              }
            },
            s.geo);
        rec.flush();
      }
    }
    for (const cell::Instance& i : c->instances()) {
      geom::Record rec(os);
      rec << "C " << ids[i.cell] << cifOrient(i.placement.orient) << " T "
          << i.placement.offset.x << ' ' << i.placement.offset.y << ";\n";
      rec.flush();
    }
    os << "DF;\n";
  }
  os << "C " << ids[&top] << ";\n";
  os << "E\n";
}

std::string writeCif(const Cell& top, const CifOptions& opts) {
  geom::TextBuffer out;
  writeCif(out, top, opts);
  return out.take();
}

void writeCif(geom::TextBuffer& os, const View& v, const CifOptions& opts) {
  os.reserve(v.shapeCountHint() * kBytesPerRecord + 256);
  if (opts.comments) {
    os << "( Bristle Blocks silicon compiler -- CIF 2.0 mask set );\n";
    os << "( flat artwork, window " << geom::toString(v.window()) << " );\n";
  }
  os << "DS 1 " << opts.scaleNum << ' ' << opts.scaleDen << ";\n";
  if (opts.symbolNames) os << "9 flat;\n";
  for (tech::Layer l : tech::kAllLayers) {
    bool wroteLayer = false;
    auto needLayer = [&] {
      if (!wroteLayer) {
        os << "L " << tech::cifName(l) << ";\n";
        wroteLayer = true;
      }
    };
    v.forEachTileParallel(l, [&](std::size_t tx, std::size_t ty,
                                 const std::vector<geom::Rect>& rs) {
      for (const geom::Rect& r : rs) {
        needLayer();
        geom::Record rec(os);
        putBox(rec, r);
        rec.flush();
      }
      // This tile's window-clipped polygon pieces, each emitted from
      // exactly one owner tile.
      for (const auto& [pl, p] : v.windowPolygonsOwnedBy(tx, ty)) {
        if (pl != l) continue;
        needLayer();
        geom::Record rec(os);
        putPolygon(rec, *p);
        rec.flush();
      }
    });
  }
  os << "DF;\n";
  os << "C 1;\n";
  os << "E\n";
}

std::string writeCif(const View& v, const CifOptions& opts) {
  geom::TextBuffer out;
  writeCif(out, v, opts);
  return out.take();
}

CifStats cifStats(const std::string& cif) {
  CifStats st;
  std::istringstream is(cif);
  std::string line;
  while (std::getline(is, line)) {
    // Skip leading whitespace.
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos) continue;
    switch (line[i]) {
      case 'D':
        if (line.compare(i, 2, "DS") == 0) ++st.symbols;
        break;
      case 'B': ++st.boxes; break;
      case 'W': ++st.wires; break;
      case 'P': ++st.polygons; break;
      case 'C': ++st.calls; break;
      default: break;
    }
  }
  return st;
}

}  // namespace bb::layout
