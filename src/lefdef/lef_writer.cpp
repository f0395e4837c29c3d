#include "lefdef/lef_writer.hpp"

#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace crp::lefdef {

namespace {

using db::Coord;

/// DBU -> micron text with enough digits to round-trip exactly.
std::string um(Coord dbu, int dbuPerMicron) {
  return util::formatDouble(static_cast<double>(dbu) / dbuPerMicron, 6);
}

std::string umArea(Coord dbuSq, int dbuPerMicron) {
  return util::formatDouble(
      static_cast<double>(dbuSq) / dbuPerMicron / dbuPerMicron, 9);
}

void writeRect(std::ostream& os, const geom::Rect& r, int dbu,
               const char* indent) {
  os << indent << "RECT " << um(r.xlo, dbu) << ' ' << um(r.ylo, dbu) << ' '
     << um(r.xhi, dbu) << ' ' << um(r.yhi, dbu) << " ;\n";
}

}  // namespace

void writeLef(std::ostream& os, const db::Tech& tech, const db::Library& lib) {
  const int dbu = tech.dbuPerMicron;
  os << "VERSION 5.8 ;\n";
  os << "BUSBITCHARS \"[]\" ;\n";
  os << "DIVIDERCHAR \"/\" ;\n";
  os << "UNITS\n  DATABASE MICRONS " << dbu << " ;\nEND UNITS\n\n";

  os << "SITE " << tech.site.name << "\n";
  os << "  CLASS CORE ;\n";
  os << "  SIZE " << um(tech.site.width, dbu) << " BY "
     << um(tech.site.height, dbu) << " ;\n";
  os << "END " << tech.site.name << "\n\n";

  // Routing and cut layers interleaved bottom-up, as real LEF does.
  for (int i = 0; i < tech.numLayers(); ++i) {
    const auto& layer = tech.layer(i);
    os << "LAYER " << layer.name << "\n";
    os << "  TYPE ROUTING ;\n";
    os << "  DIRECTION "
       << (layer.dir == db::LayerDir::kHorizontal ? "HORIZONTAL" : "VERTICAL")
       << " ;\n";
    os << "  PITCH " << um(layer.pitch, dbu) << " ;\n";
    os << "  WIDTH " << um(layer.width, dbu) << " ;\n";
    os << "  SPACING " << um(layer.spacing, dbu) << " ;\n";
    if (layer.minArea > 0) {
      os << "  AREA " << umArea(layer.minArea, dbu) << " ;\n";
    }
    os << "  OFFSET " << um(layer.offset, dbu) << " ;\n";
    os << "END " << layer.name << "\n\n";
    for (const auto& cut : tech.cutLayers()) {
      if (cut.below == i) {
        os << "LAYER " << cut.name << "\n";
        os << "  TYPE CUT ;\n";
        os << "  SPACING " << um(cut.spacing, dbu) << " ;\n";
        os << "END " << cut.name << "\n\n";
      }
    }
  }

  for (const auto& via : tech.vias()) {
    const auto& below = tech.layer(via.below);
    const auto& above = tech.layer(via.below + 1);
    // Find the cut layer between them for the middle shape name.
    std::string cutName = "Cut" + std::to_string(via.below + 1);
    for (const auto& cut : tech.cutLayers()) {
      if (cut.below == via.below) cutName = cut.name;
    }
    os << "VIA " << via.name << " DEFAULT\n";
    os << "  LAYER " << below.name << " ;\n";
    writeRect(os, via.bottomShape, dbu, "    ");
    os << "  LAYER " << cutName << " ;\n";
    writeRect(os, via.cutShape, dbu, "    ");
    os << "  LAYER " << above.name << " ;\n";
    writeRect(os, via.topShape, dbu, "    ");
    os << "END " << via.name << "\n\n";
  }

  for (const auto& macro : lib.macros()) {
    os << "MACRO " << macro.name << "\n";
    os << "  CLASS CORE ;\n";
    os << "  ORIGIN 0 0 ;\n";
    os << "  SIZE " << um(macro.width, dbu) << " BY " << um(macro.height, dbu)
       << " ;\n";
    os << "  SYMMETRY X Y ;\n";
    os << "  SITE " << tech.site.name << " ;\n";
    for (const auto& pin : macro.pins) {
      os << "  PIN " << pin.name << "\n";
      os << "    DIRECTION "
         << (pin.dir == db::PinDir::kOutput
                 ? "OUTPUT"
                 : pin.dir == db::PinDir::kInout ? "INOUT" : "INPUT")
         << " ;\n";
      os << "    PORT\n";
      int lastLayer = -1;
      for (const auto& shape : pin.shapes) {
        if (shape.layer != lastLayer) {
          os << "      LAYER " << tech.layer(shape.layer).name << " ;\n";
          lastLayer = shape.layer;
        }
        writeRect(os, shape.rect, dbu, "        ");
      }
      os << "    END\n";
      os << "  END " << pin.name << "\n";
    }
    if (!macro.obstructions.empty()) {
      os << "  OBS\n";
      int lastLayer = -1;
      for (const auto& obs : macro.obstructions) {
        if (obs.layer != lastLayer) {
          os << "    LAYER " << tech.layer(obs.layer).name << " ;\n";
          lastLayer = obs.layer;
        }
        writeRect(os, obs.rect, dbu, "      ");
      }
      os << "  END\n";
    }
    os << "END " << macro.name << "\n\n";
  }

  os << "END LIBRARY\n";
}

void writeLefFile(const std::string& path, const db::Tech& tech,
                  const db::Library& lib) {
  util::writeFileAtomicOrThrow(
      path, [&](std::ostream& out) { writeLef(out, tech, lib); });
}

}  // namespace crp::lefdef
