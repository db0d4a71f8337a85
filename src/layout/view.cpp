#include "layout/view.hpp"

#include "core/pool.hpp"
#include "geom/poly.hpp"
#include "geom/sweep.hpp"

#include <algorithm>

namespace bb::layout {

View::View(const cell::FlatLayout& flat, ViewOptions opts)
    : flat_(&flat), opts_(std::move(opts)) {
  window_ = opts_.window ? *opts_.window : flat.bbox();
  initGrid();
}

View::View(const cell::HierIndex& hier, ViewOptions opts) : flat_(nullptr), opts_(std::move(opts)) {
  window_ = opts_.window ? *opts_.window : hier.bbox();
  // Resolve only what the window can see: residual geometry through the
  // per-layer indexes, then each placement whose world bbox touches the
  // window through its unit's indexes with the window pulled into unit
  // coordinates. Everything else in the hierarchy stays unmaterialized.
  auto owned = std::make_shared<cell::FlatLayout>();
  for (std::size_t li = 0; li < tech::kLayerCount; ++li) {
    const auto l = static_cast<tech::Layer>(li);
    const geom::RectIndex& idx = hier.residual().indexOn(l);
    auto& out = owned->on(l);
    for (const int i : idx.queryTouching(window_)) {
      out.push_back(idx.rect(static_cast<std::size_t>(i)));
    }
  }
  for (const auto& [pl, poly] : hier.residual().polygons) {
    if (poly.bbox().touches(window_)) owned->polygons.emplace_back(pl, poly);
  }
  std::uint64_t resolved = 0;
  hier.forEachPlacementNear(window_, 0, [&](std::size_t pi) {
    ++resolved;
    const cell::HierPlacement& p = hier.placements()[pi];
    const cell::HierUnit& u = hier.units()[p.unit];
    const geom::Rect lw = p.t.inverted()(window_);
    for (std::size_t li = 0; li < tech::kLayerCount; ++li) {
      const auto l = static_cast<tech::Layer>(li);
      const geom::RectIndex& idx = u.flat.indexOn(l);
      auto& out = owned->on(l);
      for (const int i : idx.queryTouching(lw)) {
        out.push_back(p.t(idx.rect(static_cast<std::size_t>(i))));
      }
    }
    for (const auto& [pl, poly] : u.flat.polygons) {
      if (poly.bbox().touches(lw)) owned->polygons.emplace_back(pl, p.t(poly));
    }
  });
  hier.noteMaterialized(resolved);
  owned_ = std::move(owned);
  flat_ = owned_.get();
  initGrid();
}

void View::initGrid() noexcept {
  const geom::Coord w = window_.width();
  const geom::Coord h = window_.height();
  if (opts_.tileSize > 0) {
    pitchX_ = pitchY_ = opts_.tileSize;
    tilesX_ = w > 0 ? static_cast<std::size_t>((w + pitchX_ - 1) / pitchX_) : 1;
    tilesY_ = h > 0 ? static_cast<std::size_t>((h + pitchY_ - 1) / pitchY_) : 1;
  } else {
    // One tile covering the window (pitch at least 1 so a degenerate
    // window still forms a well-defined 1x1 grid).
    pitchX_ = std::max<geom::Coord>(w, 1);
    pitchY_ = std::max<geom::Coord>(h, 1);
    tilesX_ = tilesY_ = 1;
  }
}

geom::Rect View::tileRect(std::size_t tx, std::size_t ty) const noexcept {
  const geom::Coord x0 = window_.x0 + static_cast<geom::Coord>(tx) * pitchX_;
  const geom::Coord y0 = window_.y0 + static_cast<geom::Coord>(ty) * pitchY_;
  const geom::Coord x1 = tx + 1 == tilesX_ ? window_.x1 : std::min(x0 + pitchX_, window_.x1);
  const geom::Coord y1 = ty + 1 == tilesY_ ? window_.y1 : std::min(y0 + pitchY_, window_.y1);
  return geom::Rect{x0, y0, std::max(x0, x1), std::max(y0, y1)};
}

std::size_t View::tileOf(geom::Coord v, geom::Coord lo, geom::Coord pitch,
                         std::size_t count) noexcept {
  if (v <= lo) return 0;
  const auto t = static_cast<std::size_t>((v - lo) / pitch);
  return t < count ? t : count - 1;
}

void View::collectTile(const geom::RectIndex& idx, std::size_t tx, std::size_t ty,
                       std::vector<int>& cand, std::vector<geom::Rect>& clipped,
                       std::vector<geom::Rect>& out) const {
  const geom::Rect tile = tileRect(tx, ty);
  idx.queryTouching(tile, cand);
  out.clear();
  if (!opts_.merge) {
    // Emit each rect from exactly one tile: the tile that contains
    // its window-clamped lower-left corner. The candidates arrive in
    // ascending source order, so with a single tile this degenerates
    // to the raw-vector walk the pre-View writers did.
    for (const int i : cand) {
      const geom::Rect& r = idx.rect(static_cast<std::size_t>(i));
      const geom::Coord ax = std::min(std::max(r.x0, window_.x0), window_.x1);
      const geom::Coord ay = std::min(std::max(r.y0, window_.y0), window_.y1);
      if (tileOf(ax, window_.x0, pitchX_, tilesX_) != tx) continue;
      if (tileOf(ay, window_.y0, pitchY_, tilesY_) != ty) continue;
      out.push_back(r);
    }
  } else {
    clipped.clear();
    for (const int i : cand) {
      const geom::Rect& r = idx.rect(static_cast<std::size_t>(i));
      if (const auto c = r.intersectWith(tile)) clipped.push_back(*c);
    }
    out = geom::sweep::unionRects(clipped);
  }
}

const std::vector<geom::Rect>* View::inPlace(tech::Layer l) const {
  if (opts_.window || tileCount() != 1 || opts_.merge) return nullptr;
  // The whole artwork in one unmerged tile is every rect touching the
  // window in source order: the layer itself, read in place with no
  // index. Only an empty rect can miss its own layout's bbox; the index
  // query drops such a rect.
  const std::vector<geom::Rect>& rs = flat_->on(l);
  return std::all_of(rs.begin(), rs.end(),
                     [this](const geom::Rect& r) { return r.touches(window_); })
             ? &rs
             : nullptr;
}

void View::forEachTile(tech::Layer l, const TileFn& fn) const {
  if (const std::vector<geom::Rect>* rs = inPlace(l)) {
    fn(0, 0, *rs);
    return;
  }
  const geom::RectIndex& idx = flat_->indexOn(l);
  std::vector<int> cand;
  std::vector<geom::Rect> tileRects;
  std::vector<geom::Rect> clipped;
  for (std::size_t ty = 0; ty < tilesY_; ++ty) {
    for (std::size_t tx = 0; tx < tilesX_; ++tx) {
      collectTile(idx, tx, ty, cand, clipped, tileRects);
      fn(tx, ty, tileRects);
    }
  }
}

void View::forEachTileParallel(tech::Layer l, const TileFn& fn) const {
  const std::size_t tiles = tileCount();
  if (tiles <= 1) {
    forEachTile(l, fn);
    return;
  }
  // Look the layer's index up once (building it on first use); every
  // collect then reads it.
  const geom::RectIndex& idx = flat_->indexOn(l);
  std::vector<std::vector<geom::Rect>> buf(tiles);
  core::ThreadPool::global().parallelFor(tiles, 1, [&](std::size_t t) {
    // Per-worker scratch, reused across all tiles a worker collects.
    thread_local std::vector<int> cand;
    thread_local std::vector<geom::Rect> clipped;
    collectTile(idx, t % tilesX_, t / tilesX_, cand, clipped, buf[t]);
  });
  // Stitch on the calling thread in the sequential walk's order, so the
  // streamed output is byte-identical to forEachTile.
  for (std::size_t ty = 0; ty < tilesY_; ++ty) {
    for (std::size_t tx = 0; tx < tilesX_; ++tx) {
      fn(tx, ty, buf[ty * tilesX_ + tx]);
    }
  }
}

std::vector<geom::Rect> View::rectsOn(tech::Layer l) const {
  std::vector<geom::Rect> out;
  forEachTile(l, [&out](std::size_t, std::size_t, const std::vector<geom::Rect>& rs) {
    out.insert(out.end(), rs.begin(), rs.end());
  });
  return out;
}

std::span<const geom::Rect> View::rectsOn(tech::Layer l, std::vector<geom::Rect>& scratch) const {
  if (const std::vector<geom::Rect>* rs = inPlace(l)) return *rs;
  scratch.clear();
  forEachTileParallel(l, [&scratch](std::size_t, std::size_t, const std::vector<geom::Rect>& rs) {
    scratch.insert(scratch.end(), rs.begin(), rs.end());
  });
  return scratch;
}

const std::vector<std::pair<tech::Layer, geom::Polygon>>& View::windowPolygons() const {
  return pieces_.get([this] {
    std::vector<std::pair<tech::Layer, geom::Polygon>> pieces;
    for (const auto& [l, p] : flat_->polygons) {
      if (!p.bbox().touches(window_)) continue;
      // clipToRect's fast path hands back the polygon verbatim when the
      // window contains it, so full-chip emission reproduces the source
      // vertex stream byte for byte.
      for (geom::Polygon& piece : geom::poly::clipToRect(p, window_)) {
        pieces.emplace_back(l, std::move(piece));
      }
    }
    return pieces;
  });
}

std::vector<std::pair<tech::Layer, const geom::Polygon*>> View::windowPolygonsOwnedBy(
    std::size_t tx, std::size_t ty) const {
  std::vector<std::pair<tech::Layer, const geom::Polygon*>> out;
  for (const auto& [l, p] : windowPolygons()) {
    const geom::Rect b = p.bbox();
    const geom::Coord ax = std::min(std::max(b.x0, window_.x0), window_.x1);
    const geom::Coord ay = std::min(std::max(b.y0, window_.y0), window_.y1);
    if (tileOf(ax, window_.x0, pitchX_, tilesX_) != tx) continue;
    if (tileOf(ay, window_.y0, pitchY_, tilesY_) != ty) continue;
    out.emplace_back(l, &p);
  }
  return out;
}

}  // namespace bb::layout
