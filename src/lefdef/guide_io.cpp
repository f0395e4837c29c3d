#include "lefdef/guide_io.hpp"

#include <sstream>
#include <stdexcept>

#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace crp::lefdef {

void writeGuides(std::ostream& os, const db::Database& db,
                 const std::vector<NetGuide>& guides) {
  for (const NetGuide& guide : guides) {
    os << guide.net << "\n(\n";
    for (const GuideRect& g : guide.rects) {
      os << g.rect.xlo << ' ' << g.rect.ylo << ' ' << g.rect.xhi << ' '
         << g.rect.yhi << ' ' << db.tech().layer(g.layer).name << '\n';
    }
    os << ")\n";
  }
}

void writeGuidesFile(const std::string& path, const db::Database& db,
                     const std::vector<NetGuide>& guides) {
  util::writeFileAtomicOrThrow(
      path, [&](std::ostream& out) { writeGuides(out, db, guides); });
}

std::vector<NetGuide> parseGuides(const std::string& text,
                                  const db::Tech& tech) {
  std::vector<NetGuide> guides;
  std::istringstream in(text);
  std::string line;
  NetGuide current;
  bool inBlock = false;
  while (std::getline(in, line)) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed == "(") {
      inBlock = true;
      continue;
    }
    if (trimmed == ")") {
      inBlock = false;
      guides.push_back(std::move(current));
      current = NetGuide{};
      continue;
    }
    if (!inBlock) {
      current.net = std::string(trimmed);
      continue;
    }
    const auto tokens = util::splitWhitespace(trimmed);
    if (tokens.size() != 5) {
      throw std::runtime_error("malformed guide line: " + line);
    }
    GuideRect rect;
    rect.rect = geom::Rect{std::stoll(tokens[0]), std::stoll(tokens[1]),
                           std::stoll(tokens[2]), std::stoll(tokens[3])};
    const auto layer = tech.findLayer(tokens[4]);
    if (!layer.has_value()) {
      throw std::runtime_error("guide references unknown layer " + tokens[4]);
    }
    rect.layer = *layer;
    current.rects.push_back(rect);
  }
  return guides;
}

std::vector<NetGuide> parseGuidesFile(const std::string& path,
                                      const db::Tech& tech) {
  return parseGuides(util::readFile(path), tech);
}

}  // namespace crp::lefdef
