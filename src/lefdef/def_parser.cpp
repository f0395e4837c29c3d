#include "lefdef/def_parser.hpp"

#include <unordered_map>

#include "lefdef/tokenizer.hpp"
#include "util/file_io.hpp"

namespace crp::lefdef {

namespace {

using db::Coord;
using db::Design;
using db::Library;
using db::Tech;
using geom::Orientation;
using geom::Point;

Orientation parseOrient(const std::string& text, int line) {
  if (text == "N") return Orientation::kN;
  if (text == "S") return Orientation::kS;
  if (text == "FN") return Orientation::kFN;
  if (text == "FS") return Orientation::kFS;
  throw ParseError("unsupported orientation '" + text + "'", line);
}

class DefParser {
 public:
  DefParser(const std::string& text, const Tech& tech, const Library& lib)
      : tok_(text), tech_(tech), lib_(lib) {}

  Design run() {
    while (!tok_.atEnd()) {
      const Token token = tok_.next();
      const std::string& kw = token.text;
      if (kw == "VERSION" || kw == "DIVIDERCHAR" || kw == "BUSBITCHARS" ||
          kw == "UNITS" || kw == "TECHNOLOGY" || kw == "HISTORY") {
        tok_.skipStatement();
      } else if (kw == "DESIGN") {
        design_.name = tok_.next().text;
        tok_.expect(";");
      } else if (kw == "DIEAREA") {
        design_.dieArea = geom::Rect::fromPoints(nextPoint(), nextPoint());
        tok_.expect(";");
      } else if (kw == "ROW") {
        parseRow();
      } else if (kw == "TRACKS") {
        parseTracks();
      } else if (kw == "GCELLGRID") {
        parseGcellGrid();
      } else if (kw == "COMPONENTS") {
        parseComponents();
      } else if (kw == "PINS") {
        parsePins();
      } else if (kw == "NETS") {
        parseNets();
      } else if (kw == "SPECIALNETS") {
        skipSection("SPECIALNETS");
      } else if (kw == "BLOCKAGES") {
        parseBlockages();
      } else if (kw == "VIAS") {
        skipSection("VIAS");
      } else if (kw == "END") {
        if (tok_.accept("DESIGN")) break;
        if (!tok_.atEnd()) tok_.next();
      } else {
        throw ParseError("unknown DEF keyword '" + kw + "'", token.line);
      }
    }
    resolveNetPins();
    return std::move(design_);
  }

 private:
  /// Item loop of a counted section: true, consuming "-", before each
  /// item; false, consuming "END <section>", after the last one.
  bool nextItem(const char* section) {
    if (tok_.atEnd()) return false;
    if (tok_.accept("END")) {
      tok_.expect(section);
      return false;
    }
    tok_.expect("-");
    return true;
  }

  Point nextPoint() {
    tok_.expect("(");
    const Coord x = tok_.nextInt();
    const Coord y = tok_.nextInt();
    tok_.expect(")");
    return Point{x, y};
  }

  void parseRow() {
    db::Row row;
    row.name = tok_.next().text;
    tok_.next();  // site name (single-site designs)
    row.origin.x = tok_.nextInt();
    row.origin.y = tok_.nextInt();
    row.orient = parseOrient(tok_.next().text, tok_.currentLine());
    tok_.expect("DO");
    row.numSites = static_cast<int>(tok_.nextInt());
    tok_.expect("BY");
    tok_.nextInt();  // always 1 for std-cell rows
    if (tok_.accept("STEP")) {
      tok_.nextInt();
      tok_.nextInt();
    }
    tok_.expect(";");
    design_.rows.push_back(std::move(row));
  }

  void parseTracks() {
    db::TrackGrid grid;
    const std::string axis = tok_.next().text;  // X or Y
    // DEF TRACKS X => vertical track lines (wires run vertically).
    grid.dir = (axis == "X") ? db::LayerDir::kVertical
                             : db::LayerDir::kHorizontal;
    grid.start = tok_.nextInt();
    tok_.expect("DO");
    grid.count = static_cast<int>(tok_.nextInt());
    tok_.expect("STEP");
    grid.step = tok_.nextInt();
    if (tok_.accept("LAYER")) {
      const std::string layerName = tok_.next().text;
      const auto idx = tech_.findLayer(layerName);
      if (!idx.has_value()) {
        throw ParseError("TRACKS references unknown layer " + layerName,
                         tok_.currentLine());
      }
      grid.layer = *idx;
    }
    tok_.expect(";");
    design_.tracks.push_back(grid);
  }

  void parseGcellGrid() {
    const std::string axis = tok_.next().text;
    tok_.nextInt();  // start
    tok_.expect("DO");
    const int count = static_cast<int>(tok_.nextInt());
    tok_.expect("STEP");
    tok_.nextInt();
    tok_.expect(";");
    // DEF counts grid *lines*; cells = lines - 1.
    if (axis == "X") {
      design_.gcellCountX = count - 1;
    } else {
      design_.gcellCountY = count - 1;
    }
  }

  void parseComponents() {
    tok_.nextInt();
    tok_.expect(";");
    while (nextItem("COMPONENTS")) {
      db::Component comp;
      comp.name = tok_.next().text;
      const std::string macroName = tok_.next().text;
      const auto macroId = lib_.findMacro(macroName);
      if (!macroId.has_value()) {
        throw ParseError("component references unknown macro " + macroName,
                         tok_.currentLine());
      }
      comp.macro = *macroId;
      while (tok_.accept("+")) {
        const std::string attr = tok_.next().text;
        if (attr == "PLACED" || attr == "FIXED") {
          comp.fixed = (attr == "FIXED");
          comp.pos = nextPoint();
          comp.orient = parseOrient(tok_.next().text, tok_.currentLine());
        } else if (attr == "SOURCE" || attr == "WEIGHT") {
          tok_.next();
        }
      }
      tok_.expect(";");
      design_.components.push_back(std::move(comp));
    }
  }

  void parsePins() {
    tok_.nextInt();
    tok_.expect(";");
    while (nextItem("PINS")) {
      db::IoPin pin;
      pin.name = tok_.next().text;
      geom::Rect localShape;
      Point placed;
      while (tok_.accept("+")) {
        const std::string attr = tok_.next().text;
        if (attr == "NET") {
          pinNet_[pin.name] = tok_.next().text;
        } else if (attr == "DIRECTION" || attr == "USE") {
          tok_.next();
        } else if (attr == "LAYER") {
          const std::string layerName = tok_.next().text;
          const auto idx = tech_.findLayer(layerName);
          if (!idx.has_value()) {
            throw ParseError("pin references unknown layer " + layerName,
                             tok_.currentLine());
          }
          pin.layer = *idx;
          localShape = geom::Rect::fromPoints(nextPoint(), nextPoint());
        } else if (attr == "PLACED" || attr == "FIXED") {
          placed = nextPoint();
          tok_.next();  // orientation
        }
      }
      tok_.expect(";");
      pin.pos = placed;
      pin.shape = localShape.shifted(placed.x, placed.y);
      design_.ioPins.push_back(std::move(pin));
    }
  }

  void parseNets() {
    tok_.nextInt();
    tok_.expect(";");
    while (nextItem("NETS")) {
      db::Net net;
      net.name = tok_.next().text;
      while (!tok_.atEnd() && tok_.peek().text == "(") {
        tok_.expect("(");
        const int line = tok_.currentLine();
        std::string first = tok_.next().text;
        std::string second = tok_.next().text;
        tok_.expect(")");
        rawPins_.push_back(RawPin{static_cast<int>(design_.nets.size()),
                                  std::move(first), std::move(second), line});
      }
      while (tok_.accept("+")) {
        tok_.next();  // USE SIGNAL etc.
        if (tok_.peek().text != ";" && tok_.peek().text != "+") tok_.next();
      }
      tok_.expect(";");
      design_.nets.push_back(std::move(net));
    }
  }

  void parseBlockages() {
    tok_.nextInt();
    tok_.expect(";");
    while (nextItem("BLOCKAGES")) {
      db::Blockage blockage;
      if (tok_.accept("LAYER")) {
        const std::string layerName = tok_.next().text;
        blockage.layer = tech_.findLayer(layerName).value_or(db::kInvalidId);
      } else if (tok_.accept("PLACEMENT")) {
        blockage.layer = db::kInvalidId;
      }
      tok_.expect("RECT");
      blockage.rect = geom::Rect::fromPoints(nextPoint(), nextPoint());
      tok_.expect(";");
      design_.blockages.push_back(blockage);
    }
  }

  void skipSection(const std::string& name) {
    while (!tok_.atEnd()) {
      if (tok_.accept("END")) {
        if (tok_.accept(name)) return;
      } else {
        tok_.next();
      }
    }
  }

  /// Net pins are recorded raw during parsing because components may be
  /// declared after nets in hand-written files; resolve at the end.
  void resolveNetPins() {
    std::unordered_map<std::string, int> compByName;
    for (int i = 0; i < static_cast<int>(design_.components.size()); ++i) {
      compByName.emplace(design_.components[i].name, i);
    }
    std::unordered_map<std::string, int> ioByName;
    for (int i = 0; i < static_cast<int>(design_.ioPins.size()); ++i) {
      ioByName.emplace(design_.ioPins[i].name, i);
    }
    for (const RawPin& raw : rawPins_) {
      db::Net& net = design_.nets[raw.net];
      if (raw.first == "PIN") {
        const auto it = ioByName.find(raw.second);
        if (it == ioByName.end()) {
          throw ParseError("net references unknown IO pin " + raw.second,
                           raw.line);
        }
        net.pins.push_back(db::NetPin{db::IoPinId{it->second}});
      } else {
        const auto it = compByName.find(raw.first);
        if (it == compByName.end()) {
          throw ParseError("net references unknown component " + raw.first,
                           raw.line);
        }
        const db::Component& comp = design_.components[it->second];
        const auto pinIdx = lib_.macro(comp.macro).findPin(raw.second);
        if (!pinIdx.has_value()) {
          throw ParseError("net references unknown pin " + raw.first + "/" +
                               raw.second,
                           raw.line);
        }
        net.pins.push_back(
            db::NetPin{db::CompPinRef{it->second, *pinIdx}});
      }
    }
  }

  struct RawPin {
    int net;
    std::string first;   // component name or "PIN"
    std::string second;  // pin name
    int line;            // of the pin's component (or PIN) name
  };

  Tokenizer tok_;
  const Tech& tech_;
  const Library& lib_;
  Design design_;
  std::vector<RawPin> rawPins_;
  std::unordered_map<std::string, std::string> pinNet_;
};

}  // namespace

Design parseDef(const std::string& text, const Tech& tech,
                const Library& lib) {
  return DefParser(text, tech, lib).run();
}

Design parseDefFile(const std::string& path, const Tech& tech,
                    const Library& lib) {
  return parseDef(util::readFile(path), tech, lib);
}

}  // namespace crp::lefdef
