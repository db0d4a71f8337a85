/// \file text_buffer.hpp
/// Append-only text buffer for the output writers (CIF, SVG, SPICE and
/// the text representations).
///
/// Numbers are written with `std::to_chars`: integers in plain decimal,
/// doubles as `%.6g` (`chars_format::general`, precision 6). That is
/// exactly what `std::ostream` prints under default flags, so a writer
/// moved from `std::ostringstream` onto this buffer emits the same bytes,
/// several times faster. Unlike a stream, the output never depends on the
/// process-global locale: no thousands grouping, always a `.` decimal
/// point.

#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace bb::geom {

/// Integer types written as decimal numbers. The character types and
/// `bool` are excluded: a stream prints those as characters or 0/1, so
/// they must be spelled out at the call site.
template <class T>
concept DecimalInteger =
    std::integral<T> && !std::same_as<T, bool> && !std::same_as<T, char> &&
    !std::same_as<T, signed char> && !std::same_as<T, unsigned char> &&
    !std::same_as<T, wchar_t> && !std::same_as<T, char8_t> && !std::same_as<T, char16_t> &&
    !std::same_as<T, char32_t>;

/// Text built with stream-style `<<` and handed over by `take()`.
class TextBuffer {
 public:
  TextBuffer& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  TextBuffer& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }

  template <DecimalInteger T>
  TextBuffer& operator<<(T v) {
    char buf[24];  // 20 digits of a 64-bit value plus sign
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, r.ptr);
    return *this;
  }

  /// `%.6g`: six significant digits, trailing zeros dropped, exponent
  /// form below 1e-4 and from 1e6 up; "inf", "nan" with their sign.
  ///
  /// The svg writers print grid coordinates times 0.25 or 0.5 plus an
  /// integer margin, so nearly every value is an exact multiple of 1/8.
  /// A nonzero one below 1e6 whose decimal form has at most six
  /// significant digits is exactly what `%.6g` prints, so it is written
  /// as an integer part plus one of eight fraction suffixes, with no
  /// shortest-digits search or rounding. Every other value takes the
  /// general path.
  TextBuffer& operator<<(double v) {
    char buf[32];  // "-1.23457e-308" is the longest form
    const double a = v < 0 ? -v : v;
    if (a < 1e6 && v != 0) {  // false for NaN
      const double eighths = a * 8;  // exact: a power-of-two scale
      const auto k = static_cast<std::int64_t>(eighths);
      if (static_cast<double>(k) == eighths) {
        static constexpr std::string_view kFraction[8] = {"",   ".125", ".25", ".375",
                                                          ".5", ".625", ".75", ".875"};
        const std::int64_t whole = k >> 3;
        const std::string_view frac = kFraction[k & 7];
        char* p = buf;
        if (v < 0) *p++ = '-';
        char* const digits = p;
        p = std::to_chars(p, buf + sizeof buf, whole).ptr;
        // Significant digits: the integer part's (none when it is 0)
        // plus the fraction's, its leading '.' not counted.
        const std::size_t sig = (whole != 0 ? static_cast<std::size_t>(p - digits) : 0) +
                                (frac.empty() ? 0 : frac.size() - 1);
        if (sig <= 6) {
          out_.append(buf, p);
          out_.append(frac);
          return *this;
        }
      }
    }
    const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
    out_.append(buf, r.ptr);
    return *this;
  }

  /// The text written so far; leaves the buffer empty.
  [[nodiscard]] std::string take() noexcept { return std::exchange(out_, {}); }

 private:
  std::string out_;
};

}  // namespace bb::geom
