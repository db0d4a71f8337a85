/// Number formatting in the output writers: `geom::TextBuffer` prints
/// exactly what `std::ostringstream` prints under default flags; the
/// writers moved onto it match verbatim iostream copies of their old
/// code; and no registered emitter's output depends on the
/// process-global locale.

#include "core/samples.hpp"
#include "core/session.hpp"
#include "geom/poly.hpp"
#include "geom/text_buffer.hpp"
#include "layout/cif.hpp"
#include "layout/cif_parser.hpp"
#include "layout/gds.hpp"
#include "layout/svg.hpp"
#include "layout/view.hpp"
#include "netlist/spice.hpp"
#include "reps/emitter.hpp"
#include "reps/sticks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <locale>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace bb {
namespace {

template <class T>
std::string viaStream(T v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

template <class T>
std::string viaBuffer(T v) {
  geom::TextBuffer b;
  b << v;
  return b.take();
}

template <class T>
void expectSame(T v) {
  EXPECT_EQ(viaBuffer(v), viaStream(v)) << "value " << viaStream(v);
}

// ------------------------------------------------------------ TextBuffer

TEST(TextBuffer, IntegersMatchOstream) {
  for (int v : {0, 1, -1, 7, -42, 1000, 1234567, std::numeric_limits<int>::min(),
                std::numeric_limits<int>::max()}) {
    expectSame(v);
  }
  expectSame(std::numeric_limits<std::int64_t>::min());
  expectSame(std::numeric_limits<std::int64_t>::max());
  expectSame(std::size_t{0});
  expectSame(std::size_t{123456789});
  expectSame(std::numeric_limits<std::size_t>::max());
  expectSame(static_cast<long long>(-9876543210LL));
}

TEST(TextBuffer, DoublesMatchOstream) {
  expectSame(0.0);
  expectSame(-0.0);
  EXPECT_EQ(viaBuffer(-0.0), "-0");
  for (int k = -4000; k <= 4000; ++k) expectSame(k / 4.0);  // quarter fractions
  // Six significant digits round: ties go to even, as printf does.
  expectSame(10000.25);
  expectSame(123456.5);
  expectSame(99999.95);
  expectSame(-10000.25);
  // From 1e6 up the exponent form takes over.
  for (double v : {1e6, 1234567.0, 999999.5, 2.5e7, -3e9, 1e15, 1.7976931348623157e308}) {
    expectSame(v);
  }
  expectSame(1e-5);
  expectSame(0.0001);
  expectSame(-1.25e-7);
  expectSame(std::numeric_limits<double>::infinity());
  expectSame(-std::numeric_limits<double>::infinity());
  expectSame(std::numeric_limits<double>::quiet_NaN());
  expectSame(-std::numeric_limits<double>::quiet_NaN());
  expectSame(std::numeric_limits<double>::denorm_min());
}

TEST(TextBuffer, CoordinateLikeSweepMatchesOstream) {
  // What the svg writers print: grid coordinates times a pixel scale,
  // offset by the margin, over several magnitudes.
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  const double scales[] = {0.25, 0.5, 0.625, 1.0, 2.5e-3};
  int mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const auto raw = static_cast<std::int64_t>(lcg >> 24) % 4000000 - 2000000;
    const double v = static_cast<double>(raw >> (i % 12)) * scales[i % 5] + 10;
    if (viaBuffer(v) != viaStream(v)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

/// The general path's bytes, which the multiple-of-1/8 fast path must
/// reproduce: `to_chars(general, 6)`, i.e. `%.6g`.
std::string generalSix(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  return std::string(buf, r.ptr);
}

TEST(TextBuffer, EighthsFastPathEdgesMatchGeneral) {
  // Seventh significant digit: the fast path must hand these on.
  EXPECT_EQ(viaBuffer(99999.875), "99999.9");
  EXPECT_EQ(viaBuffer(12345.125), "12345.1");
  EXPECT_EQ(viaBuffer(123456.5), "123456");  // a tie goes to even
  EXPECT_EQ(viaBuffer(123457.5), "123458");
  // Rounding up to 1e6 switches to the exponent form.
  EXPECT_EQ(viaBuffer(999999.5), "1e+06");
  EXPECT_EQ(viaBuffer(999999.875), "1e+06");
  EXPECT_EQ(viaBuffer(-999999.875), "-1e+06");
  // Six digits exactly, and values with no integer digits.
  EXPECT_EQ(viaBuffer(999999.0), "999999");
  EXPECT_EQ(viaBuffer(99999.5), "99999.5");
  EXPECT_EQ(viaBuffer(999.875), "999.875");
  EXPECT_EQ(viaBuffer(0.125), "0.125");
  EXPECT_EQ(viaBuffer(-0.5), "-0.5");
  EXPECT_EQ(viaBuffer(0.0), "0");
  EXPECT_EQ(viaBuffer(-0.0), "-0");
  for (double v : {99999.875, 12345.125, 123456.5, 999999.5, 999999.875, 999999.0, 0.125, -0.5,
                   0.0, -0.0}) {
    EXPECT_EQ(viaBuffer(v), generalSix(v)) << generalSix(v);
    expectSame(v);
  }
}

TEST(TextBuffer, EveryEighthInRangeMatchesGeneral) {
  // Every multiple of 1/8 in [-2^16, 2^16].
  int mismatches = 0;
  for (std::int64_t k = -(std::int64_t{1} << 19); k <= (std::int64_t{1} << 19); ++k) {
    const double v = static_cast<double>(k) / 8;
    if (viaBuffer(v) != generalSix(v)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(TextBuffer, SeededEighthsQuartersHalvesAndFallbacksMatchGeneral) {
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg;
  };
  int mismatches = 0;
  const auto check = [&](double v) {
    if (viaBuffer(v) != generalSix(v)) {
      ++mismatches;
      ADD_FAILURE() << "value " << generalSix(v) << " printed as " << viaBuffer(v);
    }
  };
  const double scales[] = {0.125, 0.25, 0.5};
  for (int i = 0; i < 300000; ++i) {
    // k/8, k/4 and k/2 with |k| up to 2^40 (scaled by 8, 4 and 2), and
    // magnitudes spread over every digit count by shifting.
    const auto raw = static_cast<std::int64_t>(next() >> 23) - (std::int64_t{1} << 40);
    check(static_cast<double>(raw >> (i % 41)) * scales[i % 3]);
  }
  // Values the fast path must leave to the general one.
  check(0.55);
  for (std::int64_t k = -20000; k <= 20000; ++k) {
    check(0.625 * static_cast<double>(k) + 0.01);  // not a multiple of 1/8
    check(0.625 * static_cast<double>(k));
    check(2.5e-3 * static_cast<double>(k));
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(TextBuffer, TextAndCharactersAppendVerbatim) {
  geom::TextBuffer b;
  const std::string s = "str";
  b << "lit " << s << ' ' << std::string_view("view") << '\n';
  EXPECT_EQ(b.take(), "lit str view\n");
  EXPECT_EQ(b.take(), "");  // take() leaves the buffer empty
}

TEST(TextBuffer, GeomToStringUsesTheSameDigits) {
  EXPECT_EQ(geom::toString(geom::Point{-3, 40000}), "(-3,40000)");
  EXPECT_EQ(geom::toString(geom::Rect{-8, 0, 1234567, 16}), "[-8,0 .. 1234567,16]");
}

// ------------------------------------------- writers vs iostream references

const core::CompiledChip& sample(bool large) {
  static const std::map<bool, core::CompiledChipPtr> chips = [] {
    std::map<bool, core::CompiledChipPtr> m;
    for (bool l : {false, true}) {
      auto c = core::compileChip(l ? core::samples::largeChip(16, 8)
                                   : core::samples::smallChip(4));
      if (!c) throw std::runtime_error(c.diagnostics().toString());
      m[l] = std::move(*c);
    }
    return m;
  }();
  return *chips.at(large);
}

/// Pre-buffer `reps::sticksOf`, verbatim: one parallel tile walk per
/// layer, then the window-clipped polygon pieces.
std::vector<reps::Stick> refSticksOf(const cell::FlatLayout& flat,
                                     const layout::ViewOptions& view = {}) {
  const layout::View v{flat, view};
  std::vector<reps::Stick> out;
  for (tech::Layer l : tech::kAllLayers) {
    v.forEachTileParallel(l, [&](std::size_t, std::size_t, const std::vector<geom::Rect>& rs) {
      for (const geom::Rect& r : rs) {
        reps::Stick s;
        s.layer = l;
        if (r.width() >= r.height()) {
          s.a = {r.x0, (r.y0 + r.y1) / 2};
          s.b = {r.x1, (r.y0 + r.y1) / 2};
        } else {
          s.a = {(r.x0 + r.x1) / 2, r.y0};
          s.b = {(r.x0 + r.x1) / 2, r.y1};
        }
        out.push_back(s);
      }
    });
  }
  for (const auto& [l, p] : v.windowPolygons()) {
    const geom::Rect r = p.bbox();
    out.push_back(reps::Stick{l, {r.x0, (r.y0 + r.y1) / 2}, {r.x1, (r.y0 + r.y1) / 2}});
  }
  return out;
}

/// Pre-buffer `reps::sticksSvg`, verbatim on an ostringstream.
std::string refSticksSvg(const std::vector<reps::Stick>& sticks, double pixelsPerUnit = 0.5,
                         const std::string& title = {}) {
  geom::Rect bb{};
  bool first = true;
  for (const reps::Stick& s : sticks) {
    const geom::Rect r{s.a.x, s.a.y, s.b.x, s.b.y};
    bb = first ? r : bb.unionWith(r);
    first = false;
  }
  std::ostringstream os;
  const double w = static_cast<double>(bb.width()) * pixelsPerUnit + 20;
  const double h = static_cast<double>(bb.height()) * pixelsPerUnit + 20;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\"" << h
     << "\">\n";
  if (!title.empty()) os << "<title>" << layout::xmlEscape(title) << "</title>\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n";
  auto X = [&](geom::Coord v) { return (static_cast<double>(v - bb.x0)) * pixelsPerUnit + 10; };
  auto Y = [&](geom::Coord v) { return (static_cast<double>(bb.y1 - v)) * pixelsPerUnit + 10; };
  for (const reps::Stick& s : sticks) {
    if (s.a == s.b) {
      os << "<circle cx=\"" << X(s.a.x) << "\" cy=\"" << Y(s.a.y) << "\" r=\"1.5\" fill=\""
         << tech::displayColor(s.layer) << "\"/>\n";
    } else {
      os << "<line x1=\"" << X(s.a.x) << "\" y1=\"" << Y(s.a.y) << "\" x2=\"" << X(s.b.x)
         << "\" y2=\"" << Y(s.b.y) << "\" stroke=\"" << tech::displayColor(s.layer)
         << "\" stroke-width=\"1\"/>\n";
    }
  }
  os << "</svg>\n";
  return os.str();
}

/// Pre-buffer `netlist::writeSpice`, verbatim on an ostringstream.
std::string refWriteSpice(const netlist::TransistorNetlist& nl,
                          const netlist::SpiceOptions& opts = {}) {
  std::ostringstream os;
  os << "* " << opts.title << "\n";
  os << ".model nenh nmos (vto=1.0)\n";
  os << ".model ndep nmos (vto=-3.0)\n";
  const double micronsPerUnit = opts.lambdaMicrons / opts.unitsPerLambda;
  auto netName = [&](int id) -> std::string {
    if (id < 0 || id >= static_cast<int>(nl.nets().size())) return "0";
    std::string n = nl.nets()[static_cast<std::size_t>(id)].name;
    for (char& c : n) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return n;
  };
  int i = 0;
  for (const netlist::Transistor& t : nl.transistors()) {
    os << 'M' << i++ << ' ' << netName(t.drain) << ' ' << netName(t.gate) << ' '
       << netName(t.source) << " 0 "
       << (t.kind == netlist::TransKind::Enhancement ? "nenh" : "ndep")
       << " w=" << static_cast<double>(t.width) * micronsPerUnit << "u"
       << " l=" << static_cast<double>(t.length) * micronsPerUnit << "u\n";
  }
  os << ".end\n";
  return os.str();
}

/// Pre-buffer `TransistorNetlist::toText`, verbatim on an ostringstream
/// (`geom::toString(t.at)` spelled out as the stream prints it).
std::string refToText(const netlist::TransistorNetlist& nl) {
  std::ostringstream os;
  os << "transistor diagram: " << nl.transistors().size() << " devices ("
     << nl.enhancementCount() << " enh, " << nl.depletionCount() << " dep), "
     << nl.nets().size() << " nets\n";
  int i = 0;
  for (const netlist::Transistor& t : nl.transistors()) {
    auto nn = [&](int id) -> std::string {
      return id >= 0 && id < static_cast<int>(nl.nets().size())
                 ? nl.nets()[static_cast<std::size_t>(id)].name
                 : "?";
    };
    os << "M" << i++ << ' ' << netlist::kindName(t.kind) << " g=" << nn(t.gate)
       << " s=" << nn(t.source) << " d=" << nn(t.drain) << " w/l=" << t.width << '/'
       << t.length << " at (" << t.at.x << ',' << t.at.y << ")\n";
  }
  return os.str();
}

// ------------------------------------ the writers before the shared buffer

/// The cif, svg and gds writers as they were before every writer appended
/// into one `TextBuffer`, verbatim: cif and svg on an ostringstream, gds
/// into its own byte vector. The emitters must reproduce them byte for
/// byte (`WriterIdentity.*`).
namespace refgds {

using cell::Cell;
using layout::View;

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

/// Appends big-endian GDSII records straight into one byte vector.
class GdsBytes {
 public:
  void i16(std::uint8_t type, std::initializer_list<std::int16_t> vals) {
    header(type, kDtI16, 2 * vals.size());
    for (std::int16_t v : vals) put16(v);
  }

  void i32(std::uint8_t type, std::initializer_list<std::int32_t> vals) {
    header(type, kDtI32, 4 * vals.size());
    for (std::int32_t v : vals) put32(v);
  }

  /// XY record of a point sequence; `closeRing` repeats the first point,
  /// as a GDS boundary requires.
  void xy(const std::vector<geom::Point>& pts, bool closeRing) {
    header(kXy, kDtI32, 8 * (pts.size() + (closeRing ? 1 : 0)));
    for (geom::Point q : pts) putPoint(q);
    if (closeRing) putPoint(pts.front());
  }

  void f64(std::uint8_t type, std::initializer_list<double> vals) {
    header(type, kDtF64, 8 * vals.size());
    for (double v : vals) {
      const auto r = real8(v);
      bytes_.insert(bytes_.end(), r.begin(), r.end());
    }
  }

  void ascii(std::uint8_t type, std::string_view s) {
    const bool pad = s.size() % 2 != 0;  // records are even-length
    header(type, kDtAscii, s.size() + (pad ? 1 : 0));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    if (pad) bytes_.push_back(0);
  }

  void none(std::uint8_t type) { header(type, kDtNone, 0); }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

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
  /// type and data type; the caller appends exactly `payloadBytes`.
  void header(std::uint8_t type, std::uint8_t dtype, std::size_t payloadBytes) {
    const std::size_t len = payloadBytes + 4;
    const std::uint8_t h[4] = {static_cast<std::uint8_t>(len >> 8),
                               static_cast<std::uint8_t>(len & 0xff), type, dtype};
    bytes_.insert(bytes_.end(), h, h + 4);
  }

  void put16(std::int16_t v) {
    const std::uint8_t b[2] = {static_cast<std::uint8_t>((v >> 8) & 0xff),
                               static_cast<std::uint8_t>(v & 0xff)};
    bytes_.insert(bytes_.end(), b, b + 2);
  }

  void put32(std::int32_t v) {
    const std::uint8_t b[4] = {
        static_cast<std::uint8_t>((v >> 24) & 0xff), static_cast<std::uint8_t>((v >> 16) & 0xff),
        static_cast<std::uint8_t>((v >> 8) & 0xff), static_cast<std::uint8_t>(v & 0xff)};
    bytes_.insert(bytes_.end(), b, b + 4);
  }

  void putPoint(geom::Point q) {
    put32(static_cast<std::int32_t>(q.x));
    put32(static_cast<std::int32_t>(q.y));
  }

  std::vector<std::uint8_t> bytes_;
};

void collect(const Cell& c, std::vector<const Cell*>& order, std::map<const Cell*, bool>& seen) {
  if (seen.contains(&c)) return;
  seen[&c] = true;
  for (const cell::Instance& i : c.instances()) collect(*i.cell, order, seen);
  order.push_back(&c);
}

/// One rect as a BOUNDARY element: its closed five-point ring.
void emitRectBoundary(GdsBytes& e, std::int16_t layer, const geom::Rect& r) {
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
void emitOrient(GdsBytes& e, geom::Orientation o) {
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
void emitPolyBoundary(GdsBytes& e, std::int16_t layer, const geom::Polygon& p) {
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
void emitShapes(GdsBytes& e, const Cell& c) {
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

void emitSref(GdsBytes& e, const Cell& child, geom::Orientation o, geom::Point off) {
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

std::vector<std::uint8_t> writeGds(const Cell& top, const layout::GdsOptions& opts = {}) {
  std::vector<const Cell*> order;
  std::map<const Cell*, bool> seen;
  collect(top, order, seen);

  GdsBytes e;
  e.i16(kHeader, {600});
  // BGNLIB: creation + modification timestamps (12 i16). Fixed epoch so
  // output is deterministic and diffable.
  e.i16(kBgnLib, {1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0});
  e.ascii(kLibName, opts.libName);
  e.f64(kUnits, {1.0 / opts.dbPerUser, opts.unitMeters / opts.dbPerUser});

  for (const Cell* c : order) {
    e.i16(kBgnStr, {1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0});
    e.ascii(kStrName, c->name());
    emitShapes(e, *c);
    for (const cell::Instance& i : c->instances()) {
      emitSref(e, *i.cell, i.placement.orient, i.placement.offset);
    }
    e.none(kEndStr);
  }
  e.none(kEndLib);
  return e.take();
}

std::vector<std::uint8_t> writeGdsHier(const Cell& top, const layout::GdsOptions& opts = {}) {
  std::vector<const Cell*> order;
  std::map<const Cell*, bool> seen;
  collect(top, order, seen);

  GdsBytes e;
  e.i16(kHeader, {600});
  e.i16(kBgnLib, {1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0});
  e.ascii(kLibName, opts.libName);
  e.f64(kUnits, {1.0 / opts.dbPerUser, opts.unitMeters / opts.dbPerUser});

  for (const Cell* c : order) {
    e.i16(kBgnStr, {1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0});
    e.ascii(kStrName, c->name());
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
  return e.take();
}

std::vector<std::uint8_t> writeGds(const View& v, const layout::GdsOptions& opts = {}) {
  GdsBytes e;
  e.i16(kHeader, {600});
  e.i16(kBgnLib, {1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0});
  e.ascii(kLibName, opts.libName);
  e.f64(kUnits, {1.0 / opts.dbPerUser, opts.unitMeters / opts.dbPerUser});

  e.i16(kBgnStr, {1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0});
  e.ascii(kStrName, opts.flatStructName);
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
  return e.take();
}

}  // namespace refgds

namespace refcif {

using cell::Cell;
using geom::Orientation;
using layout::View;

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

std::string writeCif(const Cell& top, const layout::CifOptions& opts = {}) {
  std::vector<const Cell*> order;
  std::map<const Cell*, int> ids;
  collect(top, order, ids);

  std::ostringstream os;
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
        std::visit(
            [&](const auto& g) {
              using T = std::decay_t<decltype(g)>;
              if constexpr (std::is_same_v<T, geom::Rect>) {
                needLayer();
                // B length width xcenter ycenter — CIF centers may be
                // half-integral in layout units; double the coordinate
                // system would be needed. Our generators keep all rects
                // even-sized on the quarter-lambda grid, so centers are
                // exact.
                os << "B " << g.width() << ' ' << g.height() << ' ' << g.center().x << ' '
                   << g.center().y << ";\n";
              } else if constexpr (std::is_same_v<T, geom::Polygon>) {
                needLayer();
                os << "P";
                for (geom::Point p : g.pts) os << ' ' << p.x << ' ' << p.y;
                os << ";\n";
              } else {
                needLayer();
                os << "W " << g.width;
                for (geom::Point p : g.pts) os << ' ' << p.x << ' ' << p.y;
                os << ";\n";
              }
            },
            s.geo);
      }
    }
    for (const cell::Instance& i : c->instances()) {
      os << "C " << ids[i.cell] << cifOrient(i.placement.orient) << " T "
         << i.placement.offset.x << ' ' << i.placement.offset.y << ";\n";
    }
    os << "DF;\n";
  }
  os << "C " << ids[&top] << ";\n";
  os << "E\n";
  return os.str();
}

std::string writeCif(const View& v, const layout::CifOptions& opts = {}) {
  std::ostringstream os;
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
        os << "B " << r.width() << ' ' << r.height() << ' ' << r.center().x << ' '
           << r.center().y << ";\n";
      }
      // This tile's window-clipped polygon pieces, each emitted from
      // exactly one owner tile.
      for (const auto& [pl, p] : v.windowPolygonsOwnedBy(tx, ty)) {
        if (pl != l) continue;
        needLayer();
        os << "P";
        for (geom::Point q : p->pts) os << ' ' << q.x << ' ' << q.y;
        os << ";\n";
      }
    });
  }
  os << "DF;\n";
  os << "C 1;\n";
  os << "E\n";
  return os.str();
}

}  // namespace refcif

namespace refsvg {

using layout::View;

void openDoc(std::ostringstream& os, const geom::Rect& bb, const layout::SvgOptions& opts) {
  const double s = opts.pixelsPerUnit;
  const double w = static_cast<double>(bb.width()) * s + 20;
  const double h = static_cast<double>(bb.height()) * s + 20;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\"" << h
     << "\" viewBox=\"0 0 " << w << ' ' << h << "\">\n";
  if (!opts.title.empty()) os << "<title>" << layout::xmlEscape(opts.title) << "</title>\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#f8f8f4\"/>\n";
}

struct Mapper {
  geom::Rect bb;
  double s;
  [[nodiscard]] double x(geom::Coord v) const { return (static_cast<double>(v - bb.x0)) * s + 10; }
  [[nodiscard]] double y(geom::Coord v) const {
    // SVG y grows downward; layout y grows upward.
    return (static_cast<double>(bb.y1 - v)) * s + 10;
  }
};

void emitFlat(std::ostringstream& os, const Mapper& m, const View& view, double opacity) {
  // Every shape on a layer ends in the same fill attributes and tag
  // close, so each layer's tail is formatted once.
  std::array<std::string, tech::kLayerCount> tails;
  for (const tech::Layer l : tech::kAllLayers) {
    std::ostringstream tail;
    tail << "\" fill=\"" << tech::displayColor(l) << "\" fill-opacity=\"" << opacity << "\"/>\n";
    tails[static_cast<std::size_t>(l)] = tail.str();
  }
  // Draw in stack order: diffusion, implant, buried, poly, contact, metal, glass.
  const tech::Layer order[] = {tech::Layer::Diffusion, tech::Layer::Implant, tech::Layer::Buried,
                               tech::Layer::Poly,      tech::Layer::Contact, tech::Layer::Metal,
                               tech::Layer::Glass};
  for (tech::Layer l : order) {
    const std::string& tail = tails[static_cast<std::size_t>(l)];
    view.forEachTileParallel(l, [&](std::size_t, std::size_t, const std::vector<geom::Rect>& rs) {
      for (const geom::Rect& r : rs) {
        os << "<rect x=\"" << m.x(r.x0) << "\" y=\"" << m.y(r.y1) << "\" width=\""
           << static_cast<double>(r.width()) * m.s << "\" height=\""
           << static_cast<double>(r.height()) * m.s << tail;
      }
    });
  }
  // Polygon pieces under the View's clipping policy (window-crossing
  // rings clipped, fully-inside rings verbatim).
  for (const auto& [l, p] : view.windowPolygons()) {
    os << "<polygon points=\"";
    for (geom::Point q : p.pts) os << m.x(q.x) << ',' << m.y(q.y) << ' ';
    os << tails[static_cast<std::size_t>(l)];
  }
}

void emitOverlayPoint(std::ostringstream& os, const Mapper& m, const layout::SvgOverlayPoint& p) {
  // The color is caller-supplied text too — escape it like the label.
  const std::string color = layout::xmlEscape(p.color);
  os << "<circle cx=\"" << m.x(p.at.x) << "\" cy=\"" << m.y(p.at.y)
     << "\" r=\"3\" fill=\"" << color << "\"/>\n";
  if (!p.label.empty()) {
    os << "<text x=\"" << m.x(p.at.x) + 4 << "\" y=\"" << m.y(p.at.y) - 3
       << "\" font-size=\"8\" fill=\"" << color << "\">" << layout::xmlEscape(p.label) << "</text>\n";
  }
}

/// True when the overlay point should be drawn: always for a full render,
/// only inside the viewport for a windowed one.
bool overlayVisible(const layout::SvgOptions& opts, geom::Point at) {
  return !opts.view.window || opts.view.window->contains(at);
}

std::string renderSvg(const cell::Cell& top, const cell::FlatLayout& flat,
                      const layout::SvgOptions& opts) {
  std::vector<layout::SvgOverlayPoint> overlay;
  if (opts.drawBristles) {
    for (const cell::Bristle& b : top.bristles()) {
      overlay.push_back({b.pos, b.name, "#aa00aa"});
    }
  }
  std::ostringstream os;
  // The view's window is the artwork's bbox when no window is set.
  const View view{flat, opts.view};
  const geom::Rect bb =
      opts.view.window ? view.window() : top.boundary().unionWith(view.window());
  openDoc(os, bb, opts);
  const Mapper m{bb, opts.pixelsPerUnit};
  emitFlat(os, m, view, opts.fillOpacity);
  if (opts.drawBoundary) {
    const geom::Rect b = top.boundary();
    os << "<rect x=\"" << m.x(b.x0) << "\" y=\"" << m.y(b.y1) << "\" width=\""
       << static_cast<double>(b.width()) * m.s << "\" height=\""
       << static_cast<double>(b.height()) * m.s
       << "\" fill=\"none\" stroke=\"#444\" stroke-dasharray=\"4 3\"/>\n";
  }
  for (const layout::SvgOverlayPoint& p : overlay) {
    if (overlayVisible(opts, p.at)) emitOverlayPoint(os, m, p);
  }
  os << "</svg>\n";
  return os.str();
}

std::string renderSvg(const cell::FlatLayout& flat, const std::vector<layout::SvgOverlayPoint>& overlay,
                      const layout::SvgOptions& opts) {
  std::ostringstream os;
  // The view's window is the artwork's bbox when no window is set.
  const View view{flat, opts.view};
  geom::Rect bb = view.window();
  if (!opts.view.window) {
    for (const layout::SvgOverlayPoint& p : overlay) {
      bb = bb.unionWith(geom::Rect{p.at.x, p.at.y, p.at.x, p.at.y});
    }
  }
  openDoc(os, bb, opts);
  const Mapper m{bb, opts.pixelsPerUnit};
  emitFlat(os, m, view, opts.fillOpacity);
  for (const layout::SvgOverlayPoint& p : overlay) {
    if (overlayVisible(opts, p.at)) emitOverlayPoint(os, m, p);
  }
  os << "</svg>\n";
  return os.str();
}

}  // namespace refsvg

class WriterReference : public ::testing::TestWithParam<bool> {};

TEST_P(WriterReference, SticksSvgMatchesIostreamCopy) {
  const core::CompiledChip& chip = sample(GetParam());
  const std::vector<reps::Stick> sticks = refSticksOf(chip.flatCore());
  ASSERT_FALSE(sticks.empty());
  EXPECT_EQ(reps::sticksOf(chip.flatCore()), sticks);
  EXPECT_EQ(reps::sticksSvg(chip.flatCore()), refSticksSvg(sticks));
  EXPECT_EQ(reps::sticksSvg(chip.flatCore(), {}, 0.25, "a<b>"),
            refSticksSvg(sticks, 0.25, "a<b>"));
}

TEST_P(WriterReference, SpiceMatchesIostreamCopy) {
  const core::CompiledChip& chip = sample(GetParam());
  const netlist::TransistorNetlist& nl = chip.coreNetlist();
  ASSERT_FALSE(nl.transistors().empty());
  EXPECT_EQ(netlist::writeSpice(nl), refWriteSpice(nl));
  netlist::SpiceOptions odd;
  odd.title = "odd scale";
  odd.lambdaMicrons = 0.35;
  odd.unitsPerLambda = 3;
  EXPECT_EQ(netlist::writeSpice(nl, odd), refWriteSpice(nl, odd));
}

TEST_P(WriterReference, TransistorTextMatchesIostreamCopy) {
  const core::CompiledChip& chip = sample(GetParam());
  const netlist::TransistorNetlist& nl = chip.coreNetlist();
  EXPECT_EQ(nl.toText(), refToText(nl));
}

INSTANTIATE_TEST_SUITE_P(SmallAndLarge, WriterReference, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "large" : "small";
                         });

// ------------------------------------------- byte identity of every writer

/// The four sample chips, compiled once.
const std::vector<core::CompiledChipPtr>& fourSamples() {
  static const std::vector<core::CompiledChipPtr> chips = [] {
    std::vector<core::CompiledChipPtr> v;
    for (const icl::ChipDesc& d :
         {core::samples::smallChip(4), core::samples::largeChip(16, 8),
          core::samples::prototypeChip(), core::samples::segmentedChip(8)}) {
      auto c = core::compileChip(d);
      if (!c) throw std::runtime_error(c.diagnostics().toString());
      v.push_back(std::move(*c));
    }
    return v;
  }();
  return chips;
}

/// Whole artwork, a window, tiles, a tiled window, merging, and the
/// hierarchical switch with and without a window, over artwork `bb`.
std::vector<std::pair<std::string, reps::EmitterOptions>> optionSets(const geom::Rect& bb) {
  const geom::Coord w = bb.width(), h = bb.height();
  std::vector<std::pair<std::string, reps::EmitterOptions>> sets(7);
  sets[0].first = "whole";
  sets[1].first = "window";
  sets[1].second.window = geom::Rect{bb.x0 + w / 5, bb.y0 + h / 4, bb.x0 + w / 2, bb.y1 - h / 5};
  sets[2].first = "tiles";
  sets[2].second.tileSize = std::max<geom::Coord>(w / 7, 1);
  sets[3].first = "window+tiles";
  sets[3].second = sets[1].second;
  sets[3].second.tileSize = std::max<geom::Coord>(w / 11, 1);
  sets[4].first = "merge";
  sets[4].second.merge = true;
  sets[4].second.tileSize = std::max<geom::Coord>(w / 3, 1);
  sets[5].first = "hierarchical";
  sets[5].second.hierarchical = true;
  sets[6].first = "hierarchical+window";
  sets[6].second = sets[3].second;
  sets[6].second.hierarchical = true;
  return sets;
}

/// What each rewritten backend wrote before, for one chip and option set.
std::map<std::string, std::string> referenceOutputs(const core::CompiledChip& chip,
                                                    const reps::EmitterOptions& opts,
                                                    const reps::EmitterOptions& coreOpts) {
  std::map<std::string, std::string> out;
  const auto bytes = [](const std::vector<std::uint8_t>& b) {
    return std::string(b.begin(), b.end());
  };
  if (opts.windowed()) {
    const layout::View v = opts.hierarchical ? layout::View{chip.hierTop(), opts}
                                             : layout::View{chip.flatTop(), opts};
    out["cif"] = refcif::writeCif(v);
    out["gds"] = bytes(refgds::writeGds(v));
  } else {
    out["cif"] = refcif::writeCif(*chip.top);
    out["gds"] = bytes(opts.hierarchical ? refgds::writeGdsHier(*chip.top)
                                         : refgds::writeGds(*chip.top));
  }
  layout::SvgOptions svg;
  svg.title = chip.desc.name;
  svg.pixelsPerUnit = 0.25;
  svg.view = opts;
  out["svg"] = refsvg::renderSvg(*chip.top, chip.flatTop(), svg);
  out["sticks-svg"] = refSticksSvg(refSticksOf(chip.flatCore(), coreOpts));
  netlist::SpiceOptions spice;
  spice.title = chip.desc.name + " extracted netlist";
  out["spice"] = refWriteSpice(chip.coreNetlist(), spice);
  out["transistors"] = "extracted from core artwork:\n" + refToText(chip.coreNetlist());
  out["logic"] = chip.logic.toText();
  return out;
}

TEST(WriterIdentity, EveryEmitterMatchesItsReferenceCopyOnTheSamples) {
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  for (const core::CompiledChipPtr& chip : fourSamples()) {
    const auto sets = optionSets(chip->flatTop().bbox());
    const auto coreSets = optionSets(chip->flatCore().bbox());
    for (std::size_t k = 0; k < sets.size(); ++k) {
      const std::string label = chip->desc.name + " " + sets[k].first;
      // sticks-svg windows in core coordinates, the others in chip ones.
      const std::map<std::string, std::string> want =
          referenceOutputs(*chip, sets[k].second, coreSets[k].second);
      for (const auto& [name, bytes] : want) {
        const reps::EmitterOptions& opts =
            name == "sticks-svg" ? coreSets[k].second : sets[k].second;
        // EXPECT_TRUE keeps a mismatch report short: the documents are large.
        EXPECT_TRUE(reg.find(name)->emitToString(*chip, opts) == bytes) << name << " " << label;
      }
      // Every format: the stream emit writes the very bytes emitToString
      // hands over.
      for (const std::string_view name : reg.names()) {
        std::ostringstream os;
        ASSERT_TRUE(reg.emit(*chip, name, os, sets[k].second));
        EXPECT_TRUE(os.str() == reg.find(name)->emitToString(*chip, sets[k].second))
            << name << " " << label;
      }
    }
  }
}

/// An imported deck: polygons on two layers (one of them past GDSII's
/// 8191-vertex record limit, and every one longer than a `Record`'s
/// stage in cif and svg), a wire, boxes, and a symbol placed twice, once
/// rotated.
std::string polygonDeck() {
  std::ostringstream os;
  os << "DS 1 125 2; 9 leaf; L NM; P 0 0 80 0 80 80; B 8 8 200 4; "
     << "L NP; P 0 100 10 100 10 190 0 190; W 4 -20 0 -20 60 30 60; DF;\n";
  // A comb of 2100 teeth: 8402 vertices.
  constexpr int kTeeth = 2100;
  os << "DS 2; 9 top; L ND; P 0 -400 " << 8 * kTeeth << " -400 " << 8 * kTeeth << " -390";
  for (int i = kTeeth - 1; i >= 0; --i) {
    os << ' ' << 8 * i + 4 << " -390 " << 8 * i + 4 << " -360 " << 8 * i << " -360";
    if (i > 0) os << ' ' << 8 * i << " -390";
  }
  os << "; B 16 16 -40 -40; C 1 T 300 0; C 1 R 0 1 T 0 300; DF; C 2; E";
  return os.str();
}

TEST(WriterIdentity, ImportedPolygonDeckMatchesReferenceCopies) {
  cell::CellLibrary lib;
  const layout::CifParseResult res = layout::parseCif(polygonDeck(), lib);
  ASSERT_TRUE(res.ok) << res.error;
  const cell::Cell& top = *res.top;
  const cell::FlatLayout flat = cell::flatten(top);
  ASSERT_EQ(flat.polygons.size(), 5u);
  std::size_t mostVertices = 0;
  for (const auto& [l, p] : flat.polygons) mostVertices = std::max(mostVertices, p.pts.size());
  ASSERT_GT(mostVertices, 8191u);

  const auto bytes = [](const std::vector<std::uint8_t>& b) {
    return std::string(b.begin(), b.end());
  };
  EXPECT_EQ(layout::writeCif(top), refcif::writeCif(top));
  EXPECT_TRUE(bytes(layout::writeGds(top)) == bytes(refgds::writeGds(top)));
  EXPECT_TRUE(bytes(layout::writeGdsHier(top)) == bytes(refgds::writeGdsHier(top)));

  const std::vector<layout::SvgOverlayPoint> overlay = {{{10, 10}, "p<0>", "#123456"},
                                                        {{400, 300}, "", "#000000"}};
  for (const auto& [label, opts] : optionSets(flat.bbox())) {
    const layout::View v{flat, opts};
    EXPECT_EQ(layout::writeCif(v), refcif::writeCif(layout::View{flat, opts})) << label;
    EXPECT_TRUE(bytes(layout::writeGds(v)) == bytes(refgds::writeGds(layout::View{flat, opts})))
        << label;
    // 0.3 px per unit prints no multiple of 1/8, so every coordinate
    // takes the general `to_chars` path.
    for (const double ppu : {0.5, 0.3}) {
      layout::SvgOptions svg;
      svg.pixelsPerUnit = ppu;
      svg.view = opts;
      EXPECT_EQ(layout::renderSvg(flat, overlay, svg), refsvg::renderSvg(flat, overlay, svg))
          << label << " " << ppu;
      EXPECT_EQ(reps::sticksSvg(flat, opts, ppu, "deck"),
                refSticksSvg(refSticksOf(flat, opts), ppu, "deck"))
          << label << " " << ppu;
    }
    EXPECT_EQ(reps::sticksOf(flat, opts), refSticksOf(flat, opts)) << label;
  }
  layout::SvgOptions svg;
  svg.pixelsPerUnit = 0.3;
  svg.title = "deck & co";
  const std::string fallback = layout::renderSvg(top, svg);
  EXPECT_EQ(fallback, refsvg::renderSvg(top, flat, svg));
  // A one-digit fraction other than .5 is no multiple of 1/8, so the
  // document holds values the general path printed.
  bool offEighths = false;
  for (std::size_t i = 0; i + 2 < fallback.size() && !offEighths; ++i) {
    offEighths = fallback[i] == '.' && std::string_view("12346789").find(fallback[i + 1]) !=
                                           std::string_view::npos &&
                 std::isdigit(static_cast<unsigned char>(fallback[i + 2])) == 0;
  }
  EXPECT_TRUE(offEighths);
}

// ------------------------------------------------------ locale independence

/// Groups thousands with '.' and uses ',' as the decimal point — what a
/// German-style locale does to `ostream << number`.
struct CommaDecimal : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs a global locale for one scope and restores the previous one.
class GlobalLocale {
 public:
  explicit GlobalLocale(const std::locale& loc) : prev_(std::locale::global(loc)) {}
  ~GlobalLocale() { std::locale::global(prev_); }
  GlobalLocale(const GlobalLocale&) = delete;
  GlobalLocale& operator=(const GlobalLocale&) = delete;

 private:
  std::locale prev_;
};

std::map<std::string, std::string> emitEveryFormat(const core::CompiledChip& chip) {
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  std::map<std::string, std::string> out;
  for (std::string_view name : reg.names()) {
    out[std::string(name)] = reg.find(name)->emitToString(chip);
  }
  return out;
}

TEST(LocaleIndependence, EveryFormatIgnoresTheGlobalLocale) {
  const core::CompiledChip& chip = sample(true);
  const std::map<std::string, std::string> classic = emitEveryFormat(chip);
  ASSERT_EQ(classic.size(), 11u);
  const std::string stats = chip.statsText();
  ASSERT_NE(stats.find(" 15780 flattened primitives"), std::string::npos) << stats;

  const std::locale hostile(std::locale::classic(), new CommaDecimal);
  {
    // The facet is live: a stream built now prints grouped, comma-decimal.
    const GlobalLocale scope(hostile);
    std::ostringstream probe;
    probe << 3968 << ' ' << 2.5;
    ASSERT_EQ(probe.str(), "3.968 2,5");

    const std::map<std::string, std::string> hostileOut = emitEveryFormat(chip);
    for (const auto& [name, bytes] : classic) {
      EXPECT_TRUE(hostileOut.at(name) == bytes) << name << " depends on the global locale";
    }
    EXPECT_EQ(chip.statsText(), stats) << "statsText depends on the global locale";
    // A chip compiled under the hostile locale emits the same bytes too.
    auto fresh = core::compileChip(core::samples::largeChip(16, 8));
    ASSERT_TRUE(fresh) << fresh.diagnostics().toString();
    const std::map<std::string, std::string> freshOut = emitEveryFormat(**fresh);
    for (const auto& [name, bytes] : classic) {
      EXPECT_TRUE(freshOut.at(name) == bytes) << name << " differs after a hostile compile";
    }
    EXPECT_EQ((*fresh)->statsText(), stats) << "statsText differs after a hostile compile";
  }
  EXPECT_EQ(std::locale().name(), std::locale::classic().name());
}

}  // namespace
}  // namespace bb
