/// Number formatting in the output writers: `geom::TextBuffer` prints
/// exactly what `std::ostringstream` prints under default flags; the
/// writers moved onto it match verbatim iostream copies of their old
/// code; and no registered emitter's output depends on the
/// process-global locale.

#include "core/samples.hpp"
#include "core/session.hpp"
#include "geom/text_buffer.hpp"
#include "layout/svg.hpp"
#include "netlist/spice.hpp"
#include "reps/emitter.hpp"
#include "reps/sticks.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <charconv>
#include <cstdint>
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

class WriterReference : public ::testing::TestWithParam<bool> {};

TEST_P(WriterReference, SticksSvgMatchesIostreamCopy) {
  const core::CompiledChip& chip = sample(GetParam());
  const std::vector<reps::Stick> sticks = reps::sticksOf(chip.flatCore());
  ASSERT_FALSE(sticks.empty());
  EXPECT_EQ(reps::sticksSvg(sticks), refSticksSvg(sticks));
  EXPECT_EQ(reps::sticksSvg(sticks, 0.25, "a<b>"), refSticksSvg(sticks, 0.25, "a<b>"));
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
