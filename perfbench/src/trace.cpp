#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace pb {

namespace {

constexpr std::array<const char*, kLayerCount> kNames = {
    "op",
    "core.parse", "core.vote", "core.pass1", "core.pass2", "core.pass3", "core.finalize",
    "cell.flat_core",
    "geom.index_build",
    "reps.svg", "reps.sticks-svg", "reps.spice", "reps.transistors", "reps.gds", "reps.cif",
    "reps.sticks", "reps.logic", "reps.text", "reps.block", "reps.simulation",
    "drc.check",
    "lint.chip",
    "svc.viewport", "svc.viewport_hier", "svc.viewport_svg",
    "svc.compile_hit", "svc.compile_cold", "svc.open", "svc.lint",
};

Layer stageLayer(bb::core::Stage s) {
  return static_cast<Layer>(static_cast<std::size_t>(Layer::CoreParse) +
                            static_cast<std::size_t>(s));
}

}  // namespace

const char* layerName(Layer l) noexcept { return kNames[static_cast<std::size_t>(l)]; }

Layer repsLayer(std::string_view format) {
  for (std::size_t i = static_cast<std::size_t>(Layer::RepsSvg);
       i <= static_cast<std::size_t>(Layer::RepsSimulation); ++i) {
    if (std::string_view(kNames[i]).substr(5) == format) return static_cast<Layer>(i);
  }
  throw std::invalid_argument("no reps layer for format " + std::string(format));
}

void TraceBuffer::begin(Layer l, std::uint64_t op) {
  SpanRecord r;
  r.layer = l;
  if (stack_.empty()) {
    op_ = op;
  } else {
    r.parent = stack_.back();
  }
  r.op = op_;
  r.startNs = (std::chrono::steady_clock::now() - epoch_).count();
  stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
  spans_.push_back(r);
}

void TraceBuffer::end() {
  spans_[stack_.back()].endNs = (std::chrono::steady_clock::now() - epoch_).count();
  stack_.pop_back();
}

void StageSpans::onStageBegin(bb::core::Stage s, const bb::core::CompileSession&) {
  if (tb_) tb_->begin(stageLayer(s));
}

void StageSpans::onStageEnd(bb::core::Stage, const bb::core::CompileSession&, bool,
                            std::chrono::nanoseconds) {
  if (tb_) tb_->end();
}

Tracer::Tracer(int clients) : epoch_(std::chrono::steady_clock::now()) {
  buffers_.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) buffers_.emplace_back(epoch_);
}

Tracer::Rollup Tracer::rollup() const {
  Rollup r;
  for (const TraceBuffer& b : buffers_) {
    const std::vector<SpanRecord>& spans = b.spans();
    std::vector<double> childNs(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent != SpanRecord::kNoParent) {
        childNs[s.parent] += static_cast<double>(s.endNs - s.startNs);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const double dur = static_cast<double>(s.endNs - s.startNs);
      const auto l = static_cast<std::size_t>(s.layer);
      r.selfNs[l] += dur - childNs[i];
      ++r.calls[l];
      if (s.parent == SpanRecord::kNoParent) {
        r.opNs += dur;
        r.coveredNs += childNs[i];
        ++r.ops;
      }
    }
  }
  return r;
}

void Tracer::writeChromeTrace(const std::string& path, const std::string& otherDataJson) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << otherDataJson
     << ",\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<SpanRecord>& spans = buffers_[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const long long parent = s.parent == SpanRecord::kNoParent ? -1 : s.parent;
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%zu,"
                    "\"parent\":%lld}}",
                    first ? "" : ",\n", layerName(s.layer),
                    s.layer == Layer::Op ? "op" : "layer", t + 1,
                    static_cast<double>(s.startNs) / 1e3,
                    static_cast<double>(s.endNs - s.startNs) / 1e3,
                    static_cast<unsigned long long>(s.op), i, parent);
      os << buf;
      first = false;
    }
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("short write to trace " + path);
}

}  // namespace pb
