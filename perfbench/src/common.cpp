#include "bench.hpp"

#include "core/samples.hpp"
#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace pb {

std::atomic<int> ExpectedTable::corruptBudget{0};

std::string Design::id() const {
  switch (family) {
    case Family::Small: return "small-" + std::to_string(width);
    case Family::Large: return "large-" + std::to_string(width) + "x" + std::to_string(regs);
    case Family::Proto: return "proto";
    case Family::Segmented: return "seg-" + std::to_string(width);
  }
  return "?";
}

bb::icl::ChipDesc Design::desc() const {
  namespace s = bb::core::samples;
  switch (family) {
    case Family::Small: return s::smallChip(width);
    case Family::Large: return s::largeChip(width, regs);
    case Family::Proto: return s::prototypeChip();
    case Family::Segmented: return s::segmentedChip(width);
  }
  throw std::logic_error("unknown design family");
}

std::vector<Design> designGrid(const GridRanges& r) {
  using F = Design::Family;
  std::vector<Design> out;
  for (int w = r.smallMin; w <= r.smallMax; ++w) out.push_back({F::Small, w, 0});
  for (int w = r.largeWidthMin; w <= r.largeWidthMax; ++w) {
    for (int n = r.largeRegsMin; n <= r.largeRegsMax; ++n) out.push_back({F::Large, w, n});
  }
  out.push_back({F::Proto, 8, 0});
  for (int w = r.segMin; w <= r.segMax; ++w) out.push_back({F::Segmented, w, 0});
  return out;
}

std::string statsKey(const Design& d, bool prototype) {
  return d.id() + (prototype ? "+P1" : "+P0");
}

std::uint64_t digest(std::string_view bytes) noexcept {
  // Word-at-a-time multiply-xor with a murmur-style finalizer: fast enough
  // to check megabytes per op without dominating it.
  std::uint64_t h = 0xCBF29CE484222325ull ^ (bytes.size() * 0x9E3779B97F4A7C15ull);
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 0x100000001B3ull;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

ExpectedTable ExpectedTable::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("missing expected-output table " + path);
  ExpectedTable t;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || line.size() - sp - 1 != 16) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    t.digests_[line.substr(0, sp)] = std::stoull(line.substr(sp + 1), nullptr, 16);
  }
  if (t.digests_.empty()) throw std::runtime_error("empty expected-output table " + path);
  return t;
}

void ExpectedTable::save(const std::string& path) const {
  std::ofstream os(path);
  for (const auto& [key, d] : digests_) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(d));
    os << key << ' ' << hex << '\n';
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

bool ExpectedTable::matches(const std::string& key, std::string_view output) const {
  const auto it = digests_.find(key);
  bool ok = it != digests_.end();
  if (ok && corruptBudget.load(std::memory_order_relaxed) > 0 &&
      corruptBudget.fetch_sub(1) > 0 && !output.empty()) {
    std::string flipped(output);
    flipped[flipped.size() / 2] ^= 0x01;
    ok = digest(flipped) == it->second;
  } else if (ok) {
    ok = digest(output) == it->second;
  }
  if (!ok) reportFailure("output mismatch for " + key);
  return ok;
}

void reportFailure(const std::string& what) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

void ExpectedTable::record(const std::string& key, std::string_view output) {
  digests_[key] = digest(output);
}

double referenceKernelMs() {
  constexpr std::size_t kValues = 8192;
  thread_local std::vector<std::uint64_t> values(kValues);
  thread_local std::string text;
  static std::atomic<std::uint64_t> sink{0};
  const auto cpuMs = [] {
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
  };
  const double t0 = cpuMs();
  std::uint64_t h = 0;
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    Rng rng(pass);
    for (std::uint64_t& v : values) v = rng.next();
    std::sort(values.begin(), values.end());
    text.clear();
    for (const std::uint64_t v : values) {
      text += std::to_string(v % 1000003);
      text += ' ';
    }
    h ^= digest(text);
  }
  const double ms = cpuMs() - t0;
  sink.store(h, std::memory_order_relaxed);
  return ms;
}

bb::core::CompiledChipPtr compileSpanned(const std::string* text, const bb::icl::ChipDesc& desc,
                                         const bb::core::CompileOptions& opts,
                                         TraceBuffer* tb) {
  bb::core::CompileSession sess = text ? bb::core::CompileSession(*text, opts)
                                       : bb::core::CompileSession(desc, opts);
  StageSpans spans(tb);
  if (tb) sess.addObserver(&spans);
  auto r = sess.run();
  if (!r) {
    reportFailure("compile of " + desc.name + " failed: " + r.diagnostics().toString());
    return nullptr;
  }
  return std::move(*r);
}

}  // namespace pb
