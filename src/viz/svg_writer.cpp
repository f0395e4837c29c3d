#include "viz/svg_writer.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace crp::viz {

namespace {

using geom::Coord;

/// Emits one SVG rect; y is flipped so the die origin is bottom-left.
void rect(std::ostream& os, double x, double y, double w, double h,
          const std::string& fill, double opacity,
          const std::string& stroke = {}) {
  os << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << w
     << "\" height=\"" << h << "\" fill=\"" << fill << "\" fill-opacity=\""
     << opacity << "\"";
  if (!stroke.empty()) {
    os << " stroke=\"" << stroke << "\" stroke-width=\"0.5\"";
  }
  os << "/>\n";
}

}  // namespace

std::string layerColor(int layer) {
  static const char* kPalette[] = {"#1f77b4", "#ff7f0e", "#2ca02c",
                                   "#d62728", "#9467bd", "#8c564b",
                                   "#e377c2", "#7f7f7f"};
  return kPalette[layer % 8];
}

void writeSvg(std::ostream& os, const db::Database& db,
              const groute::GlobalRouter* router,
              const SvgOptions& options) {
  const auto& die = db.design().dieArea;
  double scale = options.pixelsPerDbu;
  if (scale <= 0.0) {
    scale = 1200.0 / std::max<Coord>(1, die.width());
  }
  const double width = die.width() * scale;
  const double height = die.height() * scale;
  auto px = [&](Coord x) { return (x - die.xlo) * scale; };
  auto py = [&](Coord y) { return height - (y - die.ylo) * scale; };

  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
     << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << ' '
     << height << "\">\n";
  os << "<!-- design: " << db.design().name << ", " << db.numCells()
     << " cells, " << db.numNets() << " nets -->\n";
  rect(os, 0, 0, width, height, "#ffffff", 1.0, "#000000");

  // Congestion underlay.
  if (options.drawCongestion && router != nullptr) {
    const auto map = groute::buildCongestionMap(router->graph());
    const auto& grid = router->graph().grid();
    for (int y = 0; y < map.height; ++y) {
      for (int x = 0; x < map.width; ++x) {
        const double u = std::min(1.5, map.at(x, y));
        if (u <= 0.3) continue;
        const auto cell = grid.cellRect(db::GCell{x, y});
        rect(os, px(cell.xlo), py(cell.yhi), cell.width() * scale,
             cell.height() * scale, u > 1.0 ? "#ff0000" : "#ffaa00",
             0.15 + 0.4 * std::min(1.0, u));
      }
    }
  }

  // Rows (light background stripes).
  for (const auto& row : db.design().rows) {
    rect(os, px(row.origin.x), py(row.origin.y + db.rowHeight()),
         static_cast<double>(row.numSites) * db.siteWidth() * scale,
         db.rowHeight() * scale, "#f0f0f0", 0.5);
  }

  // Cells.
  if (options.drawCells) {
    std::unordered_set<db::CellId> highlighted(options.highlight.begin(),
                                               options.highlight.end());
    for (db::CellId c = 0; c < db.numCells(); ++c) {
      const auto r = db.cellRect(c);
      const bool hot = highlighted.count(c) > 0;
      rect(os, px(r.xlo), py(r.yhi), r.width() * scale, r.height() * scale,
           hot ? "#d62728" : "#9ecae1", hot ? 0.9 : 0.7, "#3182bd");
    }
  }

  // Pins.
  if (options.drawPins) {
    for (db::NetId n = 0; n < db.numNets(); ++n) {
      for (const auto& pin : db.net(n).pins) {
        const auto p = db.pinPosition(pin);
        os << "<circle cx=\"" << px(p.x) << "\" cy=\"" << py(p.y)
           << "\" r=\"1.2\" fill=\"#333333\"/>\n";
      }
    }
  }

  // Global-route segments, one polyline per wire segment.
  if (options.drawRoutes && router != nullptr) {
    const auto& grid = router->graph().grid();
    for (db::NetId n = 0; n < db.numNets(); ++n) {
      for (const auto& seg : router->route(n).segments) {
        if (seg.isVia()) continue;
        const auto a = grid.cellCenter(db::GCell{seg.a.x, seg.a.y});
        const auto b = grid.cellCenter(db::GCell{seg.b.x, seg.b.y});
        os << "<line x1=\"" << px(a.x) << "\" y1=\"" << py(a.y)
           << "\" x2=\"" << px(b.x) << "\" y2=\"" << py(b.y)
           << "\" stroke=\"" << layerColor(seg.a.layer)
           << "\" stroke-width=\"1\" stroke-opacity=\"0.6\"/>\n";
      }
    }
  }

  os << "</svg>\n";
}

void writeSvgFile(const std::string& path, const db::Database& db,
                  const groute::GlobalRouter* router,
                  const SvgOptions& options) {
  util::writeFileAtomicOrThrow(
      path, [&](std::ostream& out) { writeSvg(out, db, router, options); });
}

}  // namespace crp::viz
