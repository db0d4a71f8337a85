#include "layout/gds.hpp"

#include "geom/poly.hpp"
#include "geom/text_buffer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string_view>
#include <utility>

namespace bb::layout {

namespace {

using cell::Cell;

// GDSII record types (with implicit data type).
enum : std::uint8_t {
  kHeader = 0x00,
  kBgnLib = 0x01,
  kLibName = 0x02,
  kUnits = 0x03,
  kEndLib = 0x04,
  kBgnStr = 0x05,
  kStrName = 0x06,
  kEndStr = 0x07,
  kBoundary = 0x08,
  kPath = 0x09,
  kSref = 0x0a,
  kAref = 0x0b,
  kLayer = 0x0d,
  kDatatype = 0x0e,
  kWidth = 0x0f,
  kXy = 0x10,
  kEndEl = 0x11,
  kSname = 0x12,
  kColRow = 0x13,
  kStrans = 0x1a,
  kAngle = 0x1c,
};

enum : std::uint8_t {
  kDtNone = 0x00,
  kDtI16 = 0x02,
  kDtI32 = 0x03,
  kDtF64 = 0x05,
  kDtAscii = 0x06,
};

/// Appends big-endian GDSII records to a `TextBuffer` through one stack
/// stage. A fixed-length record is formatted whole on the stack and
/// staged in one append; `finish()` hands the stage to the buffer.
class Emitter {
 public:
  explicit Emitter(geom::TextBuffer& out) noexcept : rec_(out) {}

  template <std::size_t N>
  void i16(std::uint8_t type, const std::int16_t (&vals)[N]) {
    char rec[4 + 2 * N];
    char* p = header(rec, type, kDtI16, 2 * N);
    for (const std::int16_t v : vals) p = put16(p, v);
    rec_ << std::string_view(rec, sizeof rec);
  }

  template <std::size_t N>
  void i32(std::uint8_t type, const std::int32_t (&vals)[N]) {
    char rec[4 + 4 * N];
    char* p = header(rec, type, kDtI32, 4 * N);
    for (const std::int32_t v : vals) p = put32(p, v);
    rec_ << std::string_view(rec, sizeof rec);
  }

  /// XY record of a point sequence; `closeRing` repeats the first point,
  /// as a GDS boundary requires.
  void xy(const std::vector<geom::Point>& pts, bool closeRing) {
    char h[4];
    header(h, kXy, kDtI32, 8 * (pts.size() + (closeRing ? 1 : 0)));
    rec_ << std::string_view(h, sizeof h);
    for (geom::Point q : pts) putPoint(q);
    if (closeRing) putPoint(pts.front());
  }

  template <std::size_t N>
  void f64(std::uint8_t type, const double (&vals)[N]) {
    char rec[4 + 8 * N];
    char* p = header(rec, type, kDtF64, 8 * N);
    for (const double v : vals) {
      for (const std::uint8_t b : real8(v)) *p++ = static_cast<char>(b);
    }
    rec_ << std::string_view(rec, sizeof rec);
  }

  void ascii(std::uint8_t type, std::string_view s) {
    const bool pad = s.size() % 2 != 0;  // records are even-length
    char h[4];
    header(h, type, kDtAscii, s.size() + (pad ? 1 : 0));
    rec_ << std::string_view(h, sizeof h) << s;
    if (pad) rec_ << '\0';
  }

  void none(std::uint8_t type) {
    char h[4];
    header(h, type, kDtNone, 0);
    rec_ << std::string_view(h, sizeof h);
  }

  /// Hand the staged bytes to the buffer; the last call of every writer.
  void finish() { rec_.flush(); }

  /// GDSII excess-64 8-byte real.
  static std::array<std::uint8_t, 8> real8(double v) {
    std::array<std::uint8_t, 8> out{};
    if (v == 0.0) return out;
    const bool neg = v < 0;
    double m = neg ? -v : v;
    int exp = 0;
    while (m >= 1.0) {
      m /= 16.0;
      ++exp;
    }
    while (m < 1.0 / 16.0) {
      m *= 16.0;
      --exp;
    }
    // m in [1/16, 1); mantissa = m * 2^56 as 7 bytes.
    std::uint64_t mant = static_cast<std::uint64_t>(std::ldexp(m, 56));
    out[0] = static_cast<std::uint8_t>((neg ? 0x80 : 0x00) | ((exp + 64) & 0x7f));
    for (int i = 6; i >= 0; --i) {
      out[static_cast<std::size_t>(7 - i)] |= static_cast<std::uint8_t>((mant >> (8 * i)) & 0xff);
    }
    return out;
  }

 private:
  /// Record length (header included, truncated to the 16-bit field),
  /// type and data type at `p`; the caller appends exactly
  /// `payloadBytes`. Returns the end.
  static char* header(char* p, std::uint8_t type, std::uint8_t dtype, std::size_t payloadBytes) {
    const std::size_t len = payloadBytes + 4;
    p[0] = static_cast<char>(len >> 8);
    p[1] = static_cast<char>(len & 0xff);
    p[2] = static_cast<char>(type);
    p[3] = static_cast<char>(dtype);
    return p + 4;
  }

  static char* put16(char* p, std::int16_t v) {
    p[0] = static_cast<char>((v >> 8) & 0xff);
    p[1] = static_cast<char>(v & 0xff);
    return p + 2;
  }

  static char* put32(char* p, std::int32_t v) {
    p[0] = static_cast<char>((v >> 24) & 0xff);
    p[1] = static_cast<char>((v >> 16) & 0xff);
    p[2] = static_cast<char>((v >> 8) & 0xff);
    p[3] = static_cast<char>(v & 0xff);
    return p + 4;
  }

  void putPoint(geom::Point q) {
    char b[8];
    put32(put32(b, static_cast<std::int32_t>(q.x)), static_cast<std::int32_t>(q.y));
    rec_ << std::string_view(b, sizeof b);
  }

  geom::Record rec_;
};

/// One rect's BOUNDARY element is exactly this many bytes; an SREF with
/// its name and orientation is about as long. Writers size their buffer
/// from their element count times this.
constexpr std::size_t kBytesPerElement = 64;

/// The library header every writer opens with.
void beginLib(Emitter& e, const GdsOptions& opts) {
  e.i16(kHeader, {600});
  // BGNLIB: creation + modification timestamps (12 i16). Fixed epoch so
  // output is deterministic and diffable.
  e.i16(kBgnLib, {1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0});
  e.ascii(kLibName, opts.libName);
  e.f64(kUnits, {1.0 / opts.dbPerUser, opts.unitMeters / opts.dbPerUser});
}

void beginStr(Emitter& e, std::string_view name) {
  e.i16(kBgnStr, {1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0});
  e.ascii(kStrName, name);
}

/// A byte vector of what `write` appends, for the vector-returning forms.
template <class Write>
std::vector<std::uint8_t> bytesOf(Write&& write) {
  geom::TextBuffer out;
  write(out);
  const std::string_view s = out.view();
  return {s.begin(), s.end()};
}

void collect(const Cell& c, std::vector<const Cell*>& order, std::map<const Cell*, bool>& seen) {
  if (seen.contains(&c)) return;
  seen[&c] = true;
  for (const cell::Instance& i : c.instances()) collect(*i.cell, order, seen);
  order.push_back(&c);
}

/// Size `out` for the hierarchical writers: every unique cell's shapes
/// and instances, plus each structure's header and trailer.
void reserveFor(geom::TextBuffer& out, const std::vector<const Cell*>& order) {
  std::size_t elements = 4;
  for (const Cell* c : order) elements += c->shapes().size() + c->instances().size() + 2;
  out.reserve(elements * kBytesPerElement);
}

/// One rect as a BOUNDARY element: its closed five-point ring.
void emitRectBoundary(Emitter& e, std::int16_t layer, const geom::Rect& r) {
  const auto x0 = static_cast<std::int32_t>(r.x0), y0 = static_cast<std::int32_t>(r.y0);
  const auto x1 = static_cast<std::int32_t>(r.x1), y1 = static_cast<std::int32_t>(r.y1);
  e.none(kBoundary);
  e.i16(kLayer, {layer});
  e.i16(kDatatype, {0});
  e.i32(kXy, {x0, y0, x1, y0, x1, y1, x0, y1, x0, y0});
  e.none(kEndEl);
}

/// GDS models placement as optional reflect-about-x followed by CCW
/// rotation. Our Orientation decomposes the same way.
struct GdsOrient {
  bool reflect;
  double angleDeg;
};

GdsOrient gdsOrient(geom::Orientation o) {
  using geom::Orientation;
  switch (o) {
    case Orientation::R0: return {false, 0};
    case Orientation::R90: return {false, 90};
    case Orientation::R180: return {false, 180};
    case Orientation::R270: return {false, 270};
    case Orientation::MX: return {true, 0};
    case Orientation::MX90: return {true, 90};
    case Orientation::MY: return {true, 180};
    case Orientation::MY90: return {true, 270};
  }
  return {false, 0};
}

/// Emit STRANS (+ ANGLE) for a placement orientation — shared by SREF
/// and AREF, which encode orientation identically.
void emitOrient(Emitter& e, geom::Orientation o) {
  const GdsOrient go = gdsOrient(o);
  if (go.reflect || go.angleDeg != 0) {
    e.i16(kStrans, {static_cast<std::int16_t>(go.reflect ? -32768 : 0)});
    if (go.angleDeg != 0) e.f64(kAngle, {go.angleDeg});
  }
}

/// GDSII caps an XY record at 8191 coordinate pairs (the 16-bit record
/// length counts bytes: (65535 - 4) / 8). A boundary repeats its first
/// point, so rings above 8190 vertices cannot be emitted in one record.
constexpr std::size_t kMaxXyPoints = 8191;

/// Emit one polygon as BOUNDARY record(s): directly when it fits, and
/// split by recursive bbox bisection (`geom::poly::clipToRect` halves)
/// when it would overflow the XY record — the writer never emits a
/// record whose length field wraps.
void emitPolyBoundary(Emitter& e, std::int16_t layer, const geom::Polygon& p) {
  if (p.pts.empty()) return;
  if (p.pts.size() + 1 > kMaxXyPoints) {
    const geom::Rect bb = p.bbox();
    const bool splitX = bb.width() >= bb.height();
    const geom::Coord mid = splitX ? geom::floorHalf(bb.x0 + bb.x1) : geom::floorHalf(bb.y0 + bb.y1);
    const geom::Rect lo = splitX ? geom::Rect{bb.x0, bb.y0, mid, bb.y1}
                                 : geom::Rect{bb.x0, bb.y0, bb.x1, mid};
    const geom::Rect hi = splitX ? geom::Rect{mid, bb.y0, bb.x1, bb.y1}
                                 : geom::Rect{bb.x0, mid, bb.x1, bb.y1};
    if (!lo.isEmpty() && !hi.isEmpty()) {
      for (const geom::Polygon& piece : geom::poly::clipToRect(p, lo)) {
        emitPolyBoundary(e, layer, piece);
      }
      for (const geom::Polygon& piece : geom::poly::clipToRect(p, hi)) {
        emitPolyBoundary(e, layer, piece);
      }
      return;
    }
    // Degenerate bbox (nothing to bisect): fall through and emit as-is
    // rather than recurse forever; such rings cannot occur from real
    // artwork.
  }
  e.none(kBoundary);
  e.i16(kLayer, {layer});
  e.i16(kDatatype, {0});
  e.xy(p.pts, /*closeRing=*/true);
  e.none(kEndEl);
}

/// Emit one cell's own shapes (boundaries for rects/polygons, PATH for
/// paths) — shared by the flat-order and AREF-compressing writers.
void emitShapes(Emitter& e, const Cell& c) {
  for (const cell::Shape& s : c.shapes()) {
    const auto layer = static_cast<std::int16_t>(tech::gdsNumber(s.layer));
    std::visit(
        [&](const auto& g) {
          using T = std::decay_t<decltype(g)>;
          if constexpr (std::is_same_v<T, geom::Rect>) {
            emitRectBoundary(e, layer, g);
          } else if constexpr (std::is_same_v<T, geom::Polygon>) {
            emitPolyBoundary(e, layer, g);
          } else {
            e.none(kPath);
            e.i16(kLayer, {layer});
            e.i16(kDatatype, {0});
            e.i32(kWidth, {static_cast<std::int32_t>(g.width)});
            e.xy(g.pts, /*closeRing=*/false);
            e.none(kEndEl);
          }
        },
        s.geo);
  }
}

void emitSref(Emitter& e, const Cell& child, geom::Orientation o, geom::Point off) {
  e.none(kSref);
  e.ascii(kSname, child.name());
  emitOrient(e, o);
  e.i32(kXy,
        {static_cast<std::int32_t>(off.x), static_cast<std::int32_t>(off.y)});
  e.none(kEndEl);
}

/// A full uniformly-spaced cartesian grid fit over a set of placement
/// offsets (what one AREF can express).
struct GridFit {
  bool ok = false;
  std::int16_t cols = 0, rows = 0;
  geom::Coord dx = 0, dy = 0;
  geom::Point origin;
};

GridFit fitGrid(const std::vector<geom::Point>& offs) {
  GridFit fit;
  if (offs.size() < 2) return fit;  // a 1x1 "array" is just an SREF
  std::vector<geom::Coord> xs, ys;
  xs.reserve(offs.size());
  ys.reserve(offs.size());
  for (const geom::Point& p : offs) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  // Distinct offsets all drawn from xs x ys: count equality with the
  // full product means every combination is present exactly once.
  if (xs.size() * ys.size() != offs.size()) return fit;
  {
    std::vector<std::pair<geom::Coord, geom::Coord>> uniq;
    uniq.reserve(offs.size());
    for (const geom::Point& p : offs) uniq.emplace_back(p.x, p.y);
    std::sort(uniq.begin(), uniq.end());
    if (std::adjacent_find(uniq.begin(), uniq.end()) != uniq.end()) return fit;
  }
  if (xs.size() > 32767 || ys.size() > 32767) return fit;  // COLROW is i16
  const geom::Coord dx = xs.size() > 1 ? xs[1] - xs[0] : 0;
  for (std::size_t i = 1; i + 1 < xs.size(); ++i) {
    if (xs[i + 1] - xs[i] != dx) return fit;
  }
  const geom::Coord dy = ys.size() > 1 ? ys[1] - ys[0] : 0;
  for (std::size_t i = 1; i + 1 < ys.size(); ++i) {
    if (ys[i + 1] - ys[i] != dy) return fit;
  }
  fit.ok = true;
  fit.cols = static_cast<std::int16_t>(xs.size());
  fit.rows = static_cast<std::int16_t>(ys.size());
  fit.dx = dx;
  fit.dy = dy;
  fit.origin = {xs.front(), ys.front()};
  return fit;
}

}  // namespace

void writeGds(geom::TextBuffer& out, const Cell& top, const GdsOptions& opts) {
  std::vector<const Cell*> order;
  std::map<const Cell*, bool> seen;
  collect(top, order, seen);
  reserveFor(out, order);

  Emitter e(out);
  beginLib(e, opts);
  for (const Cell* c : order) {
    beginStr(e, c->name());
    emitShapes(e, *c);
    for (const cell::Instance& i : c->instances()) {
      emitSref(e, *i.cell, i.placement.orient, i.placement.offset);
    }
    e.none(kEndStr);
  }
  e.none(kEndLib);
  e.finish();
}

std::vector<std::uint8_t> writeGds(const Cell& top, const GdsOptions& opts) {
  return bytesOf([&](geom::TextBuffer& out) { writeGds(out, top, opts); });
}

void writeGdsHier(geom::TextBuffer& out, const Cell& top, const GdsOptions& opts) {
  std::vector<const Cell*> order;
  std::map<const Cell*, bool> seen;
  collect(top, order, seen);
  reserveFor(out, order);

  Emitter e(out);
  beginLib(e, opts);
  for (const Cell* c : order) {
    beginStr(e, c->name());
    emitShapes(e, *c);
    // Group instances by (child, orientation), first-appearance order;
    // a group forming a full uniform grid compresses to one AREF.
    struct Group {
      const Cell* child;
      geom::Orientation o;
      std::vector<geom::Point> offsets;
    };
    std::vector<Group> groups;
    std::map<std::pair<const Cell*, int>, std::size_t> groupOf;
    for (const cell::Instance& i : c->instances()) {
      const auto key = std::make_pair(i.cell, static_cast<int>(i.placement.orient));
      const auto [it, fresh] = groupOf.try_emplace(key, groups.size());
      if (fresh) groups.push_back({i.cell, i.placement.orient, {}});
      groups[it->second].offsets.push_back(i.placement.offset);
    }
    for (const Group& g : groups) {
      const GridFit fit = fitGrid(g.offsets);
      if (fit.ok) {
        e.none(kAref);
        e.ascii(kSname, g.child->name());
        emitOrient(e, g.o);
        e.i16(kColRow, {fit.cols, fit.rows});
        // Three-point XY: array origin, end of the column axis
        // (origin + cols * dx), end of the row axis (origin + rows * dy).
        const geom::Coord cx = fit.origin.x + static_cast<geom::Coord>(fit.cols) * fit.dx;
        const geom::Coord ry = fit.origin.y + static_cast<geom::Coord>(fit.rows) * fit.dy;
        e.i32(kXy, {static_cast<std::int32_t>(fit.origin.x),
                    static_cast<std::int32_t>(fit.origin.y), static_cast<std::int32_t>(cx),
                    static_cast<std::int32_t>(fit.origin.y),
                    static_cast<std::int32_t>(fit.origin.x), static_cast<std::int32_t>(ry)});
        e.none(kEndEl);
      } else {
        for (const geom::Point& off : g.offsets) emitSref(e, *g.child, g.o, off);
      }
    }
    e.none(kEndStr);
  }
  e.none(kEndLib);
  e.finish();
}

std::vector<std::uint8_t> writeGdsHier(const Cell& top, const GdsOptions& opts) {
  return bytesOf([&](geom::TextBuffer& out) { writeGdsHier(out, top, opts); });
}

void writeGds(geom::TextBuffer& out, const View& v, const GdsOptions& opts) {
  out.reserve((v.shapeCountHint() + 4) * kBytesPerElement);
  Emitter e(out);
  beginLib(e, opts);
  beginStr(e, opts.flatStructName);
  for (tech::Layer l : tech::kAllLayers) {
    const auto layer = static_cast<std::int16_t>(tech::gdsNumber(l));
    v.forEachTileParallel(l, [&](std::size_t tx, std::size_t ty,
                                 const std::vector<geom::Rect>& rs) {
      for (const geom::Rect& r : rs) emitRectBoundary(e, layer, r);
      // This tile's window-clipped polygon pieces, each emitted from
      // exactly one owner tile.
      for (const auto& [pl, p] : v.windowPolygonsOwnedBy(tx, ty)) {
        if (pl != l) continue;
        emitPolyBoundary(e, layer, *p);
      }
    });
  }
  e.none(kEndStr);
  e.none(kEndLib);
  e.finish();
}

std::vector<std::uint8_t> writeGds(const View& v, const GdsOptions& opts) {
  return bytesOf([&](geom::TextBuffer& out) { writeGds(out, v, opts); });
}

GdsStats gdsStats(const std::vector<std::uint8_t>& bytes) {
  GdsStats st;
  std::size_t pos = 0;
  bool sawHeader = false, sawEndLib = false;
  std::string pendingName;
  while (pos + 4 <= bytes.size()) {
    const std::size_t len =
        (static_cast<std::size_t>(bytes[pos]) << 8) | static_cast<std::size_t>(bytes[pos + 1]);
    if (len < 4 || pos + len > bytes.size()) return st;  // malformed
    const std::uint8_t type = bytes[pos + 2];
    switch (type) {
      case kHeader: sawHeader = true; break;
      case kBgnStr: ++st.structures; break;
      case kStrName:
        pendingName.assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos + 4),
                           bytes.begin() + static_cast<std::ptrdiff_t>(pos + len));
        while (!pendingName.empty() && pendingName.back() == '\0') pendingName.pop_back();
        st.names.push_back(pendingName);
        break;
      case kBoundary: ++st.boundaries; break;
      case kPath: ++st.paths; break;
      case kSref: ++st.srefs; break;
      case kAref: ++st.arefs; break;
      case kEndLib: sawEndLib = true; break;
      default: break;
    }
    pos += len;
  }
  st.wellFormed = sawHeader && sawEndLib && pos == bytes.size();
  return st;
}

}  // namespace bb::layout
