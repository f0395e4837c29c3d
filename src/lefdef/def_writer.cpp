#include "lefdef/def_writer.hpp"

#include "util/file_io.hpp"

namespace crp::lefdef {

namespace {

using db::Database;

void writePoint(std::ostream& os, const geom::Point& p) {
  os << "( " << p.x << ' ' << p.y << " )";
}

}  // namespace

void writeDef(std::ostream& os, const Database& db) {
  const auto& design = db.design();
  const auto& tech = db.tech();

  os << "VERSION 5.8 ;\n";
  os << "DIVIDERCHAR \"/\" ;\n";
  os << "BUSBITCHARS \"[]\" ;\n";
  os << "DESIGN " << design.name << " ;\n";
  os << "UNITS DISTANCE MICRONS " << tech.dbuPerMicron << " ;\n\n";

  os << "DIEAREA ";
  writePoint(os, {design.dieArea.xlo, design.dieArea.ylo});
  os << ' ';
  writePoint(os, {design.dieArea.xhi, design.dieArea.yhi});
  os << " ;\n\n";

  for (const auto& row : design.rows) {
    os << "ROW " << row.name << ' ' << tech.site.name << ' ' << row.origin.x
       << ' ' << row.origin.y << ' ' << geom::orientationName(row.orient)
       << " DO " << row.numSites << " BY 1 STEP " << tech.site.width
       << " 0 ;\n";
  }
  os << '\n';

  for (const auto& grid : design.tracks) {
    os << "TRACKS " << (grid.dir == db::LayerDir::kVertical ? 'X' : 'Y') << ' '
       << grid.start << " DO " << grid.count << " STEP " << grid.step
       << " LAYER " << tech.layer(grid.layer).name << " ;\n";
  }
  os << '\n';

  if (design.gcellCountX > 0 && design.gcellCountY > 0) {
    // DEF records grid *lines* (cells + 1) with an average step; the
    // parser recomputes exact boundaries from the die area.
    os << "GCELLGRID X " << design.dieArea.xlo << " DO "
       << design.gcellCountX + 1 << " STEP "
       << design.dieArea.width() / design.gcellCountX << " ;\n";
    os << "GCELLGRID Y " << design.dieArea.ylo << " DO "
       << design.gcellCountY + 1 << " STEP "
       << design.dieArea.height() / design.gcellCountY << " ;\n\n";
  }

  os << "COMPONENTS " << design.components.size() << " ;\n";
  for (const auto& comp : design.components) {
    os << "  - " << comp.name << ' '
       << db.library().macro(comp.macro).name << " + "
       << (comp.fixed ? "FIXED" : "PLACED") << ' ';
    writePoint(os, comp.pos);
    os << ' ' << geom::orientationName(comp.orient) << " ;\n";
  }
  os << "END COMPONENTS\n\n";

  os << "PINS " << design.ioPins.size() << " ;\n";
  for (std::size_t i = 0; i < design.ioPins.size(); ++i) {
    const auto& pin = design.ioPins[i];
    // Find the net this pin belongs to (for the + NET clause).
    std::string netName;
    for (const auto& net : design.nets) {
      for (const auto& netPin : net.pins) {
        if (netPin.isIo() &&
            netPin.ioPin() == static_cast<db::IoPinId>(i)) {
          netName = net.name;
        }
      }
    }
    const geom::Rect local = pin.shape.shifted(-pin.pos.x, -pin.pos.y);
    os << "  - " << pin.name;
    if (!netName.empty()) os << " + NET " << netName;
    os << " + DIRECTION INPUT + USE SIGNAL\n";
    os << "    + LAYER " << tech.layer(pin.layer).name << ' ';
    writePoint(os, {local.xlo, local.ylo});
    os << ' ';
    writePoint(os, {local.xhi, local.yhi});
    os << " + PLACED ";
    writePoint(os, pin.pos);
    os << " N ;\n";
  }
  os << "END PINS\n\n";

  os << "NETS " << design.nets.size() << " ;\n";
  for (const auto& net : design.nets) {
    os << "  - " << net.name;
    for (const auto& pin : net.pins) {
      if (pin.isIo()) {
        os << " ( PIN " << design.ioPins[pin.ioPin()].name << " )";
      } else {
        const auto& ref = pin.compPin();
        const auto& comp = design.components[ref.cell];
        os << " ( " << comp.name << ' '
           << db.library().macro(comp.macro).pins[ref.pin].name << " )";
      }
    }
    os << " + USE SIGNAL ;\n";
  }
  os << "END NETS\n\n";

  if (!design.blockages.empty()) {
    os << "BLOCKAGES " << design.blockages.size() << " ;\n";
    for (const auto& blockage : design.blockages) {
      os << "  - ";
      if (blockage.layer == db::kInvalidId) {
        os << "PLACEMENT";
      } else {
        os << "LAYER " << tech.layer(blockage.layer).name;
      }
      os << " RECT ";
      writePoint(os, {blockage.rect.xlo, blockage.rect.ylo});
      os << ' ';
      writePoint(os, {blockage.rect.xhi, blockage.rect.yhi});
      os << " ;\n";
    }
    os << "END BLOCKAGES\n\n";
  }

  os << "END DESIGN\n";
}

void writeDefFile(const std::string& path, const Database& db) {
  util::writeFileAtomicOrThrow(
      path, [&db](std::ostream& out) { writeDef(out, db); });
}

}  // namespace crp::lefdef
