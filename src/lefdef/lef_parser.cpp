#include "lefdef/lef_parser.hpp"

#include <cmath>

#include "lefdef/tokenizer.hpp"
#include "util/file_io.hpp"

namespace crp::lefdef {

namespace {

using db::Coord;
using db::Library;
using db::Macro;
using db::MacroPin;
using db::PinDir;
using db::Tech;
using geom::Rect;

class LefParser {
 public:
  explicit LefParser(const std::string& text) : tok_(text) {}

  std::pair<Tech, Library> run() {
    while (!tok_.atEnd()) {
      const Token token = tok_.next();
      const std::string& kw = token.text;
      if (kw == "VERSION" || kw == "BUSBITCHARS" || kw == "DIVIDERCHAR" ||
          kw == "MANUFACTURINGGRID" || kw == "CLEARANCEMEASURE" ||
          kw == "USEMINSPACING" || kw == "PROPERTYDEFINITIONS") {
        tok_.skipStatement();
      } else if (kw == "UNITS") {
        parseUnits();
      } else if (kw == "SITE") {
        parseSite();
      } else if (kw == "LAYER") {
        parseLayer();
      } else if (kw == "VIA") {
        parseVia();
      } else if (kw == "MACRO") {
        parseMacro();
      } else if (kw == "END") {
        if (tok_.accept("LIBRARY")) break;
        // Stray END of an unknown block; skip its name.
        if (!tok_.atEnd()) tok_.next();
      } else {
        throw ParseError("unknown LEF keyword '" + kw + "'", token.line);
      }
    }
    return {std::move(tech_), std::move(lib_)};
  }

 private:
  Coord toDbu(double microns) const {
    return static_cast<Coord>(std::llround(microns * tech_.dbuPerMicron));
  }
  Coord toDbuArea(double squareMicrons) const {
    return static_cast<Coord>(std::llround(
        squareMicrons * tech_.dbuPerMicron * tech_.dbuPerMicron));
  }

  /// True, consuming "END <name>", at the end of a named block.
  bool endOf(const std::string& name) {
    if (!tok_.accept("END")) return false;
    tok_.expect(name);
    return true;
  }

  Rect nextRect() {
    const double x0 = tok_.nextDouble();
    const double y0 = tok_.nextDouble();
    const double x1 = tok_.nextDouble();
    const double y1 = tok_.nextDouble();
    return Rect::fromPoints({toDbu(x0), toDbu(y0)}, {toDbu(x1), toDbu(y1)});
  }

  void parseUnits() {
    while (!tok_.atEnd() && !endOf("UNITS")) {
      if (tok_.accept("DATABASE")) {
        tok_.expect("MICRONS");
        tech_.dbuPerMicron = static_cast<int>(tok_.nextInt());
        tok_.expect(";");
      } else {
        tok_.skipStatement();
      }
    }
  }

  void parseSite() {
    const std::string name = tok_.next().text;
    db::Site site;
    site.name = name;
    while (!tok_.atEnd() && !endOf(name)) {
      if (tok_.accept("SIZE")) {
        site.width = toDbu(tok_.nextDouble());
        tok_.expect("BY");
        site.height = toDbu(tok_.nextDouble());
        tok_.expect(";");
      } else {
        tok_.skipStatement();
      }
    }
    tech_.site = site;
  }

  void parseLayer() {
    const std::string name = tok_.next().text;
    std::string type;
    db::RoutingLayer layer;
    db::CutLayer cut;
    layer.name = name;
    cut.name = name;
    while (!tok_.atEnd() && !endOf(name)) {
      if (tok_.accept("TYPE")) {
        type = tok_.next().text;
        tok_.expect(";");
      } else if (tok_.accept("DIRECTION")) {
        const std::string dir = tok_.next().text;
        layer.dir = (dir == "VERTICAL") ? db::LayerDir::kVertical
                                        : db::LayerDir::kHorizontal;
        tok_.expect(";");
      } else if (tok_.accept("PITCH")) {
        layer.pitch = toDbu(tok_.nextDouble());
        tok_.expect(";");
      } else if (tok_.accept("WIDTH")) {
        layer.width = toDbu(tok_.nextDouble());
        tok_.expect(";");
      } else if (tok_.accept("SPACING")) {
        layer.spacing = cut.spacing = toDbu(tok_.nextDouble());
        tok_.expect(";");
      } else if (tok_.accept("AREA")) {
        layer.minArea = toDbuArea(tok_.nextDouble());
        tok_.expect(";");
      } else if (tok_.accept("OFFSET")) {
        layer.offset = toDbu(tok_.nextDouble());
        tok_.expect(";");
      } else {
        tok_.skipStatement();
      }
    }
    if (type == "ROUTING") {
      tech_.addLayer(layer);
    } else if (type == "CUT") {
      cut.below = tech_.numLayers() - 1;
      if (cut.below >= 0 && cut.below + 1 < tech_.numLayers() + 8) {
        // Cut layers appear between routing layers in stack order; the
        // routing layer above is added right after, so defer validation
        // until the full stack exists.
        pendingCuts_.push_back(cut);
      }
    }
    flushPendingCuts();
  }

  void flushPendingCuts() {
    // Register any pending cut whose upper routing layer now exists.
    auto it = pendingCuts_.begin();
    while (it != pendingCuts_.end()) {
      if (it->below + 1 < tech_.numLayers()) {
        tech_.addCutLayer(*it);
        it = pendingCuts_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void parseVia() {
    const std::string name = tok_.next().text;
    tok_.accept("DEFAULT");
    db::ViaDef via;
    via.name = name;
    int shapesSeen = 0;
    int firstLayer = -1;
    while (!tok_.atEnd() && !endOf(name)) {
      if (tok_.accept("LAYER")) {
        const std::string layerName = tok_.next().text;
        tok_.expect(";");
        tok_.expect("RECT");
        const Rect rect = nextRect();
        tok_.expect(";");
        const auto idx = tech_.findLayer(layerName);
        if (idx.has_value()) {
          if (firstLayer < 0) firstLayer = *idx;
          if (shapesSeen == 0) {
            via.bottomShape = rect;
          } else {
            via.topShape = rect;
          }
        } else {
          via.cutShape = rect;  // cut layer shape
        }
        ++shapesSeen;
      } else {
        tok_.skipStatement();
      }
    }
    if (firstLayer >= 0) {
      via.below = firstLayer;
      tech_.addVia(via);
    }
  }

  void parseMacro() {
    const std::string name = tok_.next().text;
    Macro macro;
    macro.name = name;
    while (!tok_.atEnd() && !endOf(name)) {
      if (tok_.accept("SIZE")) {
        macro.width = toDbu(tok_.nextDouble());
        tok_.expect("BY");
        macro.height = toDbu(tok_.nextDouble());
        tok_.expect(";");
      } else if (tok_.accept("PIN")) {
        macro.pins.push_back(parsePin());
      } else if (tok_.accept("OBS")) {
        parseLayerRects([&macro](int layer, const Rect& rect) {
          macro.obstructions.push_back(db::Obstruction{layer, rect});
        });
      } else {
        tok_.skipStatement();
      }
    }
    lib_.addMacro(std::move(macro));
  }

  MacroPin parsePin() {
    const std::string name = tok_.next().text;
    MacroPin pin;
    pin.name = name;
    while (!tok_.atEnd() && !endOf(name)) {
      if (tok_.accept("DIRECTION")) {
        const std::string dir = tok_.next().text;
        if (dir == "OUTPUT") {
          pin.dir = PinDir::kOutput;
        } else if (dir == "INOUT") {
          pin.dir = PinDir::kInout;
        } else {
          pin.dir = PinDir::kInput;
        }
        tok_.skipStatement();  // swallow optional TRISTATE etc. + ';'
      } else if (tok_.accept("PORT")) {
        parseLayerRects([&pin](int layer, const Rect& rect) {
          pin.shapes.push_back(db::PinShape{layer, rect});
        });
      } else {
        tok_.skipStatement();
      }
    }
    return pin;
  }

  /// LAYER/RECT statements of a PORT or OBS block, up to its bare END:
  /// `add(layer, rect)` receives each rect on a known routing layer.
  template <typename AddShape>
  void parseLayerRects(AddShape add) {
    int currentLayer = -1;
    while (!tok_.atEnd() && !tok_.accept("END")) {
      if (tok_.accept("LAYER")) {
        const std::string layerName = tok_.next().text;
        tok_.expect(";");
        currentLayer = tech_.findLayer(layerName).value_or(-1);
      } else if (tok_.accept("RECT")) {
        const Rect rect = nextRect();
        tok_.expect(";");
        if (currentLayer >= 0) add(currentLayer, rect);
      } else {
        tok_.skipStatement();
      }
    }
  }

  Tokenizer tok_;
  Tech tech_;
  Library lib_;
  std::vector<db::CutLayer> pendingCuts_;
};

}  // namespace

std::pair<Tech, Library> parseLef(const std::string& text) {
  return LefParser(text).run();
}

std::pair<Tech, Library> parseLefFile(const std::string& path) {
  return parseLef(util::readFile(path));
}

}  // namespace crp::lefdef
