#include "icl/parser.hpp"

#include <limits>

namespace bb::icl {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> toks, DiagnosticList& diags)
      : toks_(std::move(toks)), diags_(diags) {}

  std::optional<ChipDesc> parse() {
    ChipDesc chip;
    bool sawMicrocode = false, sawData = false, sawBuses = false, sawCore = false;

    if (!expectKeyword("chip")) return std::nullopt;
    if (!expectIdent(chip.name, "chip name")) return std::nullopt;
    expect(TokKind::Semi);

    while (!at(TokKind::EndOfFile)) {
      if (atKeyword("var")) {
        parseVar(chip);
      } else if (atKeyword("microcode")) {
        parseMicrocode(chip);
        sawMicrocode = true;
      } else if (atKeyword("data")) {
        parseData(chip);
        sawData = true;
      } else if (atKeyword("buses")) {
        parseBuses(chip);
        sawBuses = true;
      } else if (atKeyword("core")) {
        parseCore(chip.core);
        sawCore = true;
      } else {
        diags_.error(cur().loc, "expected a section (var/microcode/data/buses/core), got " +
                                    std::string(tokKindName(cur().kind)) +
                                    (cur().text.empty() ? "" : " '" + cur().text + "'"));
        recoverToSemiOrBrace();
      }
    }

    if (!sawMicrocode) diags_.error({}, "missing 'microcode' section");
    if (!sawData) diags_.error({}, "missing 'data width' section");
    if (!sawBuses) diags_.error({}, "missing 'buses' section");
    if (!sawCore) diags_.error({}, "missing 'core' section");

    if (diags_.hasErrors()) return std::nullopt;
    return chip;
  }

 private:
  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(std::size_t n = 1) const {
    return toks_[std::min(pos_ + n, toks_.size() - 1)];
  }
  void advance() {
    if (pos_ + 1 < toks_.size()) ++pos_;
  }
  bool at(TokKind k) const { return cur().kind == k; }
  bool atKeyword(std::string_view kw) const {
    return cur().kind == TokKind::Ident && cur().text == kw;
  }
  bool accept(TokKind k) {
    if (at(k)) {
      advance();
      return true;
    }
    return false;
  }
  bool expect(TokKind k) {
    if (accept(k)) return true;
    diags_.error(cur().loc, "expected " + std::string(tokKindName(k)) + ", got " +
                                std::string(tokKindName(cur().kind)));
    return false;
  }
  bool expectKeyword(std::string_view kw) {
    if (atKeyword(kw)) {
      advance();
      return true;
    }
    diags_.error(cur().loc, "expected '" + std::string(kw) + "'");
    return false;
  }
  bool expectIdent(std::string& out, std::string_view what) {
    if (at(TokKind::Ident)) {
      out = cur().text;
      advance();
      return true;
    }
    diags_.error(cur().loc, "expected " + std::string(what));
    return false;
  }
  /// A number stored as `int` (a width or a bit position).
  bool expectInt(int& out, std::string_view what) {
    if (!at(TokKind::Number)) {
      diags_.error(cur().loc, "expected " + std::string(what));
      return false;
    }
    if (cur().number > std::numeric_limits<int>::max()) {
      diags_.error(cur().loc, std::string(what) + " " + cur().text + " is out of range");
    } else {
      out = static_cast<int>(cur().number);
    }
    advance();
    return true;
  }
  void recoverToSemiOrBrace() {
    while (!at(TokKind::EndOfFile) && !at(TokKind::Semi) && !at(TokKind::RBrace)) advance();
    accept(TokKind::Semi);
    accept(TokKind::RBrace);
  }

  void parseVar(ChipDesc& chip) {
    const SourceLoc varLoc = cur().loc;
    advance();  // var
    std::string name;
    if (!expectIdent(name, "variable name")) {
      recoverToSemiOrBrace();
      return;
    }
    expect(TokKind::Assign);
    bool value = false;
    if (atKeyword("true")) {
      value = true;
      advance();
    } else if (atKeyword("false")) {
      value = false;
      advance();
    } else if (at(TokKind::Number)) {
      value = cur().number != 0;
      advance();
    } else {
      diags_.error(cur().loc, "expected true/false");
      recoverToSemiOrBrace();
      return;
    }
    if (chip.vars.contains(name)) {
      diags_.warning(varLoc, "variable '" + name + "' redefined");
    }
    chip.vars[name] = value;
    expect(TokKind::Semi);
  }

  void parseMicrocode(ChipDesc& chip) {
    chip.microcode.loc = cur().loc;
    advance();  // microcode
    expectKeyword("width");
    expectInt(chip.microcode.width, "microcode width");
    if (!expect(TokKind::LBrace)) return;
    while (!at(TokKind::RBrace) && !at(TokKind::EndOfFile)) {
      if (!atKeyword("field")) {
        diags_.error(cur().loc, "expected 'field'");
        recoverToSemiOrBrace();
        continue;
      }
      FieldDecl f;
      f.loc = cur().loc;
      advance();
      if (!expectIdent(f.name, "field name")) {
        recoverToSemiOrBrace();
        continue;
      }
      expect(TokKind::LBracket);
      expectInt(f.lo, "low bit");
      expect(TokKind::Colon);
      expectInt(f.hi, "high bit");
      expect(TokKind::RBracket);
      expect(TokKind::Semi);
      chip.microcode.fields.push_back(std::move(f));
    }
    expect(TokKind::RBrace);
  }

  void parseData(ChipDesc& chip) {
    advance();  // data
    expectKeyword("width");
    expectInt(chip.dataWidth, "data width");
    expect(TokKind::Semi);
  }

  void parseBuses(ChipDesc& chip) {
    advance();  // buses
    do {
      std::string b;
      if (!expectIdent(b, "bus name")) break;
      chip.buses.push_back(std::move(b));
    } while (accept(TokKind::Comma));
    expect(TokKind::Semi);
  }

  void parseCore(std::vector<CoreItem>& items) {
    advance();  // core (or already consumed brace for nested)
    if (!expect(TokKind::LBrace)) return;
    parseItems(items);
    expect(TokKind::RBrace);
  }

  void parseItems(std::vector<CoreItem>& items) {
    while (!at(TokKind::RBrace) && !at(TokKind::EndOfFile)) {
      if (atKeyword("if")) {
        CondBlock cb;
        cb.loc = cur().loc;
        advance();
        cb.negate = accept(TokKind::Bang);
        if (!expectIdent(cb.var, "condition variable")) {
          recoverToSemiOrBrace();
          continue;
        }
        if (!expect(TokKind::LBrace)) continue;
        parseItems(cb.thenItems);
        expect(TokKind::RBrace);
        if (atKeyword("else")) {
          advance();
          if (expect(TokKind::LBrace)) {
            parseItems(cb.elseItems);
            expect(TokKind::RBrace);
          }
        }
        items.push_back(CoreItem{std::move(cb)});
        continue;
      }
      // element: KIND NAME [ (params) ] ;
      ElementDecl e;
      e.loc = cur().loc;
      if (!expectIdent(e.kind, "element kind")) {
        recoverToSemiOrBrace();
        continue;
      }
      if (!expectIdent(e.name, "element name")) {
        recoverToSemiOrBrace();
        continue;
      }
      if (accept(TokKind::LParen)) {
        if (!at(TokKind::RParen)) {
          do {
            std::string pname;
            if (!expectIdent(pname, "parameter name")) break;
            expect(TokKind::Assign);
            ParamValue v = parseValue();
            if (e.params.contains(pname)) {
              diags_.error(cur().loc, "duplicate parameter '" + pname + "'");
            }
            e.params.emplace(std::move(pname), std::move(v));
          } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen);
      }
      expect(TokKind::Semi);
      items.push_back(CoreItem{std::move(e)});
    }
  }

  ParamValue parseValue() {
    if (at(TokKind::Number)) {
      const long long v = cur().number;
      advance();
      return ParamValue(v);
    }
    if (atKeyword("true")) {
      advance();
      return ParamValue(true);
    }
    if (atKeyword("false")) {
      advance();
      return ParamValue(false);
    }
    if (at(TokKind::String)) {
      ParamValue v(cur().text, true);
      advance();
      return v;
    }
    if (at(TokKind::Ident)) {
      ParamValue v(cur().text, false);
      advance();
      return v;
    }
    if (accept(TokKind::LBracket)) {
      ParamValue::List list;
      if (!at(TokKind::RBracket)) {
        do {
          list.push_back(parseValue());
        } while (accept(TokKind::Comma));
      }
      expect(TokKind::RBracket);
      return ParamValue(std::move(list));
    }
    diags_.error(cur().loc, "expected a value");
    advance();
    return {};
  }

  std::vector<Token> toks_;
  DiagnosticList& diags_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<ChipDesc> parseChip(std::string_view src, DiagnosticList& diags) {
  std::vector<Token> toks = tokenize(src, diags);
  if (diags.hasErrors()) return std::nullopt;
  Parser p(std::move(toks), diags);
  return p.parse();
}

}  // namespace bb::icl
