#include "layout/cif_parser.hpp"

#include "geom/poly.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <vector>

namespace bb::layout {

namespace {

/// Token scanner over CIF text. CIF separates commands with ';'; within a
/// command, integers and letters are self-delimiting.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void skipWs() {
    while (pos_ < text_.size() &&
           (std::isspace(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == ',')) {
      ++pos_;
    }
  }

  bool atEnd() {
    skipWs();
    return pos_ >= text_.size();
  }

  char peek() {
    skipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char get() {
    skipWs();
    return pos_ < text_.size() ? text_[pos_++] : '\0';
  }

  /// Skip a parenthesized comment.
  void skipComment() {
    int depth = 0;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '(') ++depth;
      if (c == ')') {
        if (--depth <= 0) return;
      }
    }
  }

  /// The next integer, or nullopt when none starts here. A number past
  /// `long long` is consumed, yields nullopt and sets `error()`.
  std::optional<long long> number() {
    skipWs();
    bool neg = false;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      neg = text_[pos_] == '-';
      ++pos_;
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ == start) return std::nullopt;
    long long v = 0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, v).ec != std::errc{}) {
      error_ = "number " + std::string(text_.substr(start, pos_ - start)) +
               " is too large for a 64-bit integer";
      return std::nullopt;
    }
    return neg ? -v : v;
  }

  /// Why the last `number()` failed, if it failed on a number too large.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  std::string word() {
    skipWs();
    std::string w;
    while (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                                   text_[pos_] == '_' || text_[pos_] == '+' ||
                                   text_[pos_] == '#' || text_[pos_] == '.' ||
                                   text_[pos_] == '-')) {
      w += text_[pos_++];
    }
    return w;
  }

  /// Consume to the terminating ';'.
  void finishCommand() {
    while (pos_ < text_.size() && text_[pos_] != ';') {
      if (text_[pos_] == '(') skipComment();
      else ++pos_;
    }
    if (pos_ < text_.size()) ++pos_;  // eat ';'
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

geom::Orientation orientFromOps(bool mx, bool my, int rot) {
  // Build the orientation by composing CIF ops in order: we track the net
  // effect as one of our 8 orientations. mx: x->-x (our MY); my: y->-y
  // (our MX); rot in quarter turns CCW applied last.
  geom::Orientation o = geom::Orientation::R0;
  if (mx) o = geom::compose(geom::Orientation::MY, o);
  if (my) o = geom::compose(geom::Orientation::MX, o);
  const geom::Orientation rots[4] = {geom::Orientation::R0, geom::Orientation::R90,
                                     geom::Orientation::R180, geom::Orientation::R270};
  o = geom::compose(rots[((rot % 4) + 4) % 4], o);
  return o;
}

}  // namespace

CifParseResult parseCif(std::string_view text, cell::CellLibrary& lib) {
  CifParseResult res;
  Scanner sc(text);
  std::map<int, cell::Cell*> symbols;
  cell::Cell* current = nullptr;
  bool inSymbol = false;
  int currentId = -1;
  std::string pendingName;
  tech::Layer layer = tech::Layer::Metal;
  cell::Cell* lastDefined = nullptr;
  int topCallId = -1;

  auto fail = [&](const std::string& msg) {
    res.ok = false;
    // A number too large to hold is why the command around it failed.
    res.error = sc.error().empty() ? msg : sc.error();
    return res;
  };
  // Symbols are `int`-keyed: a wider id must not wrap onto another symbol.
  auto badId = [](long long id) { return id < 0 || id > std::numeric_limits<int>::max(); };
  // Shape operands and call offsets stay within geom::kCoordLimit, so the
  // corner arithmetic below cannot overflow.
  auto badCoord = [](long long v) { return v < -geom::kCoordLimit || v > geom::kCoordLimit; };
  auto coordFail = [&](long long v) {
    return fail("coordinate " + std::to_string(v) + " is out of range");
  };

  // Cell creation is deferred until the first content command so the
  // `9 <name>;` extension (which writeCif emits right after DS) can name
  // the cell before it exists.
  auto ensureCurrent = [&]() -> cell::Cell* {
    if (current == nullptr && inSymbol) {
      const std::string name =
          pendingName.empty() ? "cif_" + std::to_string(currentId) : pendingName;
      current = lib.create(name);
      symbols[currentId] = current;
    }
    return current;
  };

  while (sc.error().empty() && !sc.atEnd()) {
    const char c = sc.peek();
    if (c == '(') {
      sc.get();
      // Already consumed '('; put the comment skipper to work from here.
      int depth = 1;
      while (!sc.atEnd() && depth > 0) {
        const char d = sc.get();
        if (d == '(') ++depth;
        if (d == ')') --depth;
      }
      sc.finishCommand();
      continue;
    }
    if (c == 'D') {
      sc.get();
      const char which = sc.get();
      if (which == 'S') {
        auto id = sc.number();
        if (!id) return fail("DS without id");
        if (badId(*id)) return fail("symbol id " + std::to_string(*id) + " is out of range");
        sc.number();  // scale num (optional)
        sc.number();  // scale den
        currentId = static_cast<int>(*id);
        inSymbol = true;
        current = nullptr;
        pendingName.clear();
        sc.finishCommand();
      } else if (which == 'F') {
        if (!inSymbol) return fail("DF without DS");
        lastDefined = ensureCurrent();
        current = nullptr;
        inSymbol = false;
        currentId = -1;
        sc.finishCommand();
      } else if (which == 'D') {
        sc.finishCommand();  // DD (delete definitions) — ignored
      } else {
        return fail(std::string("unknown D command: D") + which);
      }
      continue;
    }
    if (c == '9') {
      sc.get();
      pendingName = sc.word();
      sc.finishCommand();
      continue;
    }
    if (c == 'L') {
      sc.get();
      const std::string lay = sc.word();
      auto l = tech::layerFromCif(lay);
      if (!l) return fail("unknown CIF layer " + lay);
      layer = *l;
      sc.finishCommand();
      continue;
    }
    if (c == 'B') {
      sc.get();
      auto w = sc.number();
      auto h = sc.number();
      auto cx = sc.number();
      auto cy = sc.number();
      if (!w || !h || !cx || !cy) return fail("malformed B command");
      for (const long long v : {*w, *h, *cx, *cy}) {
        if (badCoord(v)) return coordFail(v);
      }
      if (ensureCurrent() == nullptr) return fail("B outside DS");
      current->addRect(layer, geom::Rect{*cx - *w / 2, *cy - *h / 2, *cx - *w / 2 + *w,
                                         *cy - *h / 2 + *h});
      sc.finishCommand();
      continue;
    }
    if (c == 'W') {
      sc.get();
      auto w = sc.number();
      if (!w) return fail("malformed W command");
      if (badCoord(*w)) return coordFail(*w);
      geom::Path p;
      p.width = *w;
      while (true) {
        auto x = sc.number();
        if (!x) break;
        auto y = sc.number();
        if (!y) return fail("odd coordinate count in W");
        if (badCoord(*x)) return coordFail(*x);
        if (badCoord(*y)) return coordFail(*y);
        p.pts.push_back({*x, *y});
      }
      if (ensureCurrent() == nullptr) return fail("W outside DS");
      current->addPath(layer, std::move(p));
      sc.finishCommand();
      continue;
    }
    if (c == 'P') {
      sc.get();
      geom::Polygon p;
      while (true) {
        auto x = sc.number();
        if (!x) break;
        auto y = sc.number();
        if (!y) return fail("odd coordinate count in P");
        if (badCoord(*x)) return coordFail(*x);
        if (badCoord(*y)) return coordFail(*y);
        p.pts.push_back({*x, *y});
      }
      if (ensureCurrent() == nullptr) return fail("P outside DS");
      // Import validation: collapse duplicate/collinear vertices, then
      // reject rings that have no area or cross themselves — downstream
      // clipping, DRC and extraction all assume simple rings. These are
      // diagnostics on the input deck, not assertions.
      geom::Polygon cleaned = geom::poly::cleanPolygon(p);
      if (cleaned.pts.size() < 3) {
        return fail("degenerate P polygon (no enclosed area)");
      }
      if (geom::poly::selfIntersects(cleaned)) {
        return fail("self-intersecting P polygon");
      }
      current->addPolygon(layer, std::move(cleaned));
      sc.finishCommand();
      continue;
    }
    if (c == 'C') {
      sc.get();
      auto id = sc.number();
      if (!id) return fail("C without symbol id");
      if (badId(*id)) return fail("symbol id " + std::to_string(*id) + " is out of range");
      bool mx = false, my = false;
      int rot = 0;
      geom::Point t{};
      while (true) {
        const char op = sc.peek();
        if (op == 'T') {
          sc.get();
          auto x = sc.number();
          auto y = sc.number();
          if (!x || !y) return fail("malformed T in C");
          if (badCoord(*x)) return coordFail(*x);
          if (badCoord(*y)) return coordFail(*y);
          t = {*x, *y};
        } else if (op == 'R') {
          sc.get();
          auto ax = sc.number();
          auto ay = sc.number();
          if (!ax || !ay) return fail("malformed R in C");
          if (*ax > 0 && *ay == 0) rot += 0;
          else if (*ax == 0 && *ay > 0) rot += 1;
          else if (*ax < 0 && *ay == 0) rot += 2;
          else if (*ax == 0 && *ay < 0) rot += 3;
          else return fail("non-manhattan rotation in C");
        } else if (op == 'M') {
          sc.get();
          const char axis = sc.get();
          if (axis == 'X') mx = true;
          else if (axis == 'Y') my = true;
          else return fail("malformed M in C");
        } else {
          break;
        }
      }
      if (!inSymbol) {
        topCallId = static_cast<int>(*id);
      } else if (ensureCurrent() != nullptr) {
        auto it = symbols.find(static_cast<int>(*id));
        if (it == symbols.end()) return fail("call of undefined symbol " + std::to_string(*id));
        // The only cycle a CIF deck can build: `C` resolves only symbols
        // whose cell already exists, and a repeated DS makes a fresh cell.
        if (it->second == current) return fail("symbol " + std::to_string(*id) + " calls itself");
        current->addInstance(it->second, geom::Transform{orientFromOps(mx, my, rot), t});
      }
      sc.finishCommand();
      continue;
    }
    if (c == 'E') {
      sc.get();
      break;
    }
    // Unknown/unsupported command (0-8 user extensions etc.) — skip.
    sc.get();
    sc.finishCommand();
  }

  if (!sc.error().empty()) return fail(sc.error());
  res.ok = true;
  if (topCallId >= 0 && symbols.contains(topCallId)) {
    res.top = symbols[topCallId];
  } else {
    res.top = lastDefined;
  }
  if (res.top == nullptr) return CifParseResult{false, "no symbols defined", nullptr};
  return res;
}

}  // namespace bb::layout
