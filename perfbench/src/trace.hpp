/// \file trace.hpp
/// Spans recorded from outside the library: each op gets a root span and
/// each call into a layer's public function a child span. Spans go to a
/// per-client buffer in memory and are written out after the run as
/// Chrome trace-event JSON (Perfetto opens it) plus a self-time rollup.

#pragma once

#include "core/session.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Every span name the benchmark records. `Op` is the root of each op.
enum class Layer : std::uint8_t {
  Op,
  CoreParse, CoreVote, CorePass1, CorePass2, CorePass3, CoreFinalize,
  CellFlatCore,
  GeomIndexBuild,
  RepsSvg, RepsSticksSvg, RepsSpice, RepsTransistors, RepsGds, RepsCif,
  RepsSticks, RepsLogic, RepsText, RepsBlock, RepsSimulation,
  DrcCheck,
  LintChip,
  SvcViewport, SvcViewportHier, SvcViewportSvg,
  SvcCompileHit, SvcCompileCold, SvcOpen, SvcLint,
  Count
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::Count);

/// Metric-style name, e.g. "core.pass1", "reps.sticks-svg".
[[nodiscard]] const char* layerName(Layer l) noexcept;
/// The reps layer of an emitter format name ("svg" -> RepsSvg).
[[nodiscard]] Layer repsLayer(std::string_view format);

struct SpanRecord {
  Layer layer = Layer::Op;
  std::uint32_t parent = kNoParent;
  std::uint64_t op = 0;
  std::int64_t startNs = 0;  ///< since the tracer's epoch
  std::int64_t endNs = 0;
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
};

/// One client's spans. Only its own thread touches it while the run lasts.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::chrono::steady_clock::time_point epoch) : epoch_(epoch) {}

  void begin(Layer l, std::uint64_t op = 0);
  void end();
  /// Rename the innermost open span (a call's outcome decides its layer).
  void relabel(Layer l) { spans_[stack_.back()].layer = l; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t op_ = 0;
};

/// RAII span (a root span when no span is open, carrying `op`); a null
/// buffer (untraced run) records nothing.
class Span {
 public:
  Span(TraceBuffer* tb, Layer l, std::uint64_t op = 0) : tb_(tb) {
    if (tb_) tb_->begin(l, op);
  }
  ~Span() {
    if (tb_) tb_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void relabel(Layer l) {
    if (tb_) tb_->relabel(l);
  }

 private:
  TraceBuffer* tb_;
};

/// Run `calls` as op `op`: returns its wall time and, on traced runs,
/// records a root span around the child spans the calls open.
template <typename F>
std::chrono::nanoseconds timedOp(TraceBuffer* tb, std::uint64_t op, F&& calls) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    const Span root(tb, Layer::Op, op);
    std::forward<F>(calls)();
  }
  return std::chrono::steady_clock::now() - t0;
}

/// Stage spans through the session's public observer hook.
class StageSpans final : public bb::core::PassObserver {
 public:
  explicit StageSpans(TraceBuffer* tb) : tb_(tb) {}
  void onStageBegin(bb::core::Stage s, const bb::core::CompileSession&) override;
  void onStageEnd(bb::core::Stage, const bb::core::CompileSession&, bool,
                  std::chrono::nanoseconds) override;

 private:
  TraceBuffer* tb_;
};

/// The buffers of one traced run.
class Tracer {
 public:
  explicit Tracer(int clients);
  [[nodiscard]] TraceBuffer* client(int i) { return &buffers_[static_cast<std::size_t>(i)]; }

  struct Rollup {
    std::array<double, kLayerCount> selfNs{};  ///< summed self time per layer
    std::array<std::uint64_t, kLayerCount> calls{};
    double opNs = 0;       ///< summed root-span duration
    double coveredNs = 0;  ///< root-span time covered by child spans
    std::uint64_t ops = 0;
  };
  /// Self time per layer: each span's duration minus its direct children.
  [[nodiscard]] Rollup rollup() const;

  /// Chrome trace-event JSON ("X" complete events, one tid per client).
  void writeChromeTrace(const std::string& path, const std::string& otherDataJson) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceBuffer> buffers_;
};

}  // namespace pb
