/// \file text_buffer.hpp
/// Append-only output buffer for every writer (CIF, GDS, SVG, SPICE and
/// the text representations), and `Record`, which stages one record on
/// the stack so it reaches the buffer in one append.
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
#include <cstring>
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

/// Room a number needs: 20 digits of a 64-bit integer plus sign, and
/// "-1.23457e-308", the longest `%.6g` form, with margin.
inline constexpr std::size_t kNumberRoom = 32;

/// Write `v` as `%.6g` at `p`, which has `kNumberRoom` chars of room, and
/// return the end: six significant digits, trailing zeros dropped,
/// exponent form below 1e-4 and from 1e6 up; "inf", "nan" with their
/// sign. The one double formatter every writer goes through.
///
/// The svg writers print grid coordinates times 0.25 or 0.5 plus an
/// integer margin, so nearly every value is an exact multiple of 1/8.
/// A nonzero one below 1e6 whose decimal form has at most six
/// significant digits is exactly what `%.6g` prints, so it is written
/// as an integer part plus one of eight fraction suffixes, with no
/// shortest-digits search or rounding. Every other value takes the
/// general path.
inline char* formatDouble(char* p, double v) noexcept {
  char* const end = p + kNumberRoom;
  const double a = v < 0 ? -v : v;
  if (a < 1e6 && v != 0) {  // false for NaN
    const double eighths = a * 8;  // exact: a power-of-two scale
    const auto k = static_cast<std::int64_t>(eighths);
    if (static_cast<double>(k) == eighths) {
      static constexpr std::string_view kFraction[8] = {"",   ".125", ".25", ".375",
                                                        ".5", ".625", ".75", ".875"};
      const std::int64_t whole = k >> 3;
      const std::string_view frac = kFraction[k & 7];
      char* q = p;
      if (v < 0) *q++ = '-';
      char* const digits = q;
      q = std::to_chars(q, end, whole).ptr;
      // Significant digits: the integer part's (none when it is 0) plus
      // the fraction's, its leading '.' not counted.
      const std::size_t sig = (whole != 0 ? static_cast<std::size_t>(q - digits) : 0) +
                              (frac.empty() ? 0 : frac.size() - 1);
      if (sig <= 6) {
        std::memcpy(q, frac.data(), frac.size());
        return q + frac.size();
      }
    }
  }
  return std::to_chars(p, end, v, std::chars_format::general, 6).ptr;
}

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
    char buf[kNumberRoom];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }

  /// `%.6g` (`formatDouble`).
  TextBuffer& operator<<(double v) {
    char buf[kNumberRoom];
    out_.append(buf, formatDouble(buf, v));
    return *this;
  }

  /// Make room for `bytes` more without reallocating. Writers call it
  /// before writing, from counts they already have.
  void reserve(std::size_t bytes) { out_.reserve(out_.size() + bytes); }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  /// The text written so far, valid until the next write.
  [[nodiscard]] std::string_view view() const noexcept { return out_; }

  /// The text written so far; leaves the buffer empty.
  [[nodiscard]] std::string take() noexcept { return std::exchange(out_, {}); }

 private:
  std::string out_;
};

/// One output record (an svg element, a CIF box, GDS records) formatted
/// on the stack and handed to a `TextBuffer` in one append by `flush()`.
/// A run longer than the stage goes over in stage-sized pieces, so any
/// length comes out right and a short record costs one append. Whatever
/// is staged reaches the buffer only through `flush()`.
class Record {
 public:
  explicit Record(TextBuffer& out) noexcept : out_(out) {}
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;

  Record& operator<<(std::string_view s) {
    if (s.size() > room()) {
      flush();
      if (s.size() > kStage) {
        out_ << s;
        return *this;
      }
    }
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
    return *this;
  }
  Record& operator<<(char c) {
    if (room() == 0) flush();
    *p_++ = c;
    return *this;
  }

  template <DecimalInteger T>
  Record& operator<<(T v) {
    if (room() < kNumberRoom) flush();
    p_ = std::to_chars(p_, p_ + kNumberRoom, v).ptr;
    return *this;
  }

  /// `%.6g` (`formatDouble`).
  Record& operator<<(double v) {
    if (room() < kNumberRoom) flush();
    p_ = formatDouble(p_, v);
    return *this;
  }

  /// Append what is staged to the buffer and empty the stage.
  void flush() {
    out_ << std::string_view(buf_, static_cast<std::size_t>(p_ - buf_));
    p_ = buf_;
  }

 private:
  static constexpr std::size_t kStage = 256;

  [[nodiscard]] std::size_t room() const noexcept {
    return kStage - static_cast<std::size_t>(p_ - buf_);
  }

  TextBuffer& out_;
  char buf_[kStage];
  char* p_ = buf_;
};

}  // namespace bb::geom
