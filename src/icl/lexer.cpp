#include "icl/lexer.hpp"

#include <cctype>
#include <limits>

namespace bb::icl {

std::string_view tokKindName(TokKind k) noexcept {
  switch (k) {
    case TokKind::Ident: return "identifier";
    case TokKind::Number: return "number";
    case TokKind::String: return "string";
    case TokKind::Semi: return "';'";
    case TokKind::Comma: return "','";
    case TokKind::LParen: return "'('";
    case TokKind::RParen: return "')'";
    case TokKind::LBrace: return "'{'";
    case TokKind::RBrace: return "'}'";
    case TokKind::LBracket: return "'['";
    case TokKind::RBracket: return "']'";
    case TokKind::Assign: return "'='";
    case TokKind::Colon: return "':'";
    case TokKind::Bang: return "'!'";
    case TokKind::Amp: return "'&'";
    case TokKind::Pipe: return "'|'";
    case TokKind::EqEq: return "'=='";
    case TokKind::BangEq: return "'!='";
    case TokKind::EndOfFile: return "end of input";
    case TokKind::Error: return "error";
  }
  return "?";
}

std::vector<Token> tokenize(std::string_view src, DiagnosticList& diags) {
  std::vector<Token> out;
  int line = 1, col = 1;
  std::size_t i = 0;

  auto loc = [&] { return SourceLoc{line, col}; };
  auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };

  while (i < src.size()) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    if (c == '#' || (c == '/' && i + 1 < src.size() && src[i + 1] == '/')) {
      while (i < src.size() && src[i] != '\n') advance();
      continue;
    }
    const SourceLoc at = loc();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string w;
      while (i < src.size() && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                                src[i] == '_')) {
        w += src[i];
        advance();
      }
      out.push_back({TokKind::Ident, std::move(w), 0, at});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      long long v = 0;
      bool overflow = false;
      std::string w;
      // Append one digit in `base`, flagging a value past `long long`.
      const auto push = [&](int base, int digit) {
        if (v > (std::numeric_limits<long long>::max() - digit) / base) overflow = true;
        if (!overflow) v = v * base + digit;
        w += src[i];
        advance();
      };
      if (c == '0' && i + 1 < src.size() && (src[i + 1] == 'x' || src[i + 1] == 'X')) {
        w = "0x";
        advance(2);
        while (i < src.size() && std::isxdigit(static_cast<unsigned char>(src[i]))) {
          const char d = src[i];
          push(16, std::isdigit(static_cast<unsigned char>(d))
                       ? d - '0'
                       : std::tolower(static_cast<unsigned char>(d)) - 'a' + 10);
        }
        if (w == "0x") {
          diags.error(at, "malformed hex literal");
          out.push_back({TokKind::Error, w, 0, at});
          continue;
        }
      } else {
        while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) {
          push(10, src[i] - '0');
        }
      }
      if (overflow) {
        diags.error(at, "number " + w + " is too large for a 64-bit integer");
        out.push_back({TokKind::Error, std::move(w), 0, at});
        continue;
      }
      out.push_back({TokKind::Number, std::move(w), v, at});
      continue;
    }
    if (c == '"') {
      advance();
      std::string w;
      bool closed = false;
      while (i < src.size()) {
        if (src[i] == '"') {
          closed = true;
          advance();
          break;
        }
        if (src[i] == '\n') break;
        w += src[i];
        advance();
      }
      if (!closed) {
        diags.error(at, "unterminated string literal");
        out.push_back({TokKind::Error, w, 0, at});
        continue;
      }
      out.push_back({TokKind::String, std::move(w), 0, at});
      continue;
    }
    auto two = [&](char next) {
      return i + 1 < src.size() && src[i + 1] == next;
    };
    switch (c) {
      case ';': out.push_back({TokKind::Semi, ";", 0, at}); advance(); break;
      case ',': out.push_back({TokKind::Comma, ",", 0, at}); advance(); break;
      case '(': out.push_back({TokKind::LParen, "(", 0, at}); advance(); break;
      case ')': out.push_back({TokKind::RParen, ")", 0, at}); advance(); break;
      case '{': out.push_back({TokKind::LBrace, "{", 0, at}); advance(); break;
      case '}': out.push_back({TokKind::RBrace, "}", 0, at}); advance(); break;
      case '[': out.push_back({TokKind::LBracket, "[", 0, at}); advance(); break;
      case ']': out.push_back({TokKind::RBracket, "]", 0, at}); advance(); break;
      case ':': out.push_back({TokKind::Colon, ":", 0, at}); advance(); break;
      case '&': out.push_back({TokKind::Amp, "&", 0, at}); advance(); break;
      case '|': out.push_back({TokKind::Pipe, "|", 0, at}); advance(); break;
      case '=':
        if (two('=')) {
          out.push_back({TokKind::EqEq, "==", 0, at});
          advance(2);
        } else {
          out.push_back({TokKind::Assign, "=", 0, at});
          advance();
        }
        break;
      case '!':
        if (two('=')) {
          out.push_back({TokKind::BangEq, "!=", 0, at});
          advance(2);
        } else {
          out.push_back({TokKind::Bang, "!", 0, at});
          advance();
        }
        break;
      default:
        diags.error(at, std::string("unexpected character '") + c + "'");
        out.push_back({TokKind::Error, std::string(1, c), 0, at});
        advance();
        break;
    }
  }
  out.push_back({TokKind::EndOfFile, "", 0, loc()});
  return out;
}

}  // namespace bb::icl
