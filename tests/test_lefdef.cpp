// Tests for LEF/DEF/guide parsing and writing, including full
// round-trip properties: write(parse(x)) preserves all modeled fields.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "db/database.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/guide_io.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "lefdef/tokenizer.hpp"
#include "test_helpers.hpp"

namespace crp::lefdef {
namespace {

// ---- Tokenizer -------------------------------------------------------------

TEST(Tokenizer, SplitsPunctuationAndStripsComments) {
  Tokenizer tok("FOO ( 1 2 ) ; # comment\nBAR");
  EXPECT_EQ(tok.next().text, "FOO");
  EXPECT_EQ(tok.next().text, "(");
  EXPECT_EQ(tok.next().text, "1");
  EXPECT_EQ(tok.next().text, "2");
  EXPECT_EQ(tok.next().text, ")");
  EXPECT_EQ(tok.next().text, ";");
  const Token bar = tok.next();
  EXPECT_EQ(bar.text, "BAR");
  EXPECT_EQ(bar.line, 2);
  EXPECT_TRUE(tok.atEnd());
}

TEST(Tokenizer, QuotedStringsAreSingleTokens) {
  Tokenizer tok("BUSBITCHARS \"[]\" ;");
  tok.expect("BUSBITCHARS");
  EXPECT_EQ(tok.next().text, "[]");
}

TEST(Tokenizer, ExpectThrowsWithLineNumber) {
  Tokenizer tok("A\nB");
  tok.next();
  try {
    tok.expect("C");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 2);
  }
}

TEST(Tokenizer, NumericReaders) {
  Tokenizer tok("1.5 -42 zzz");
  EXPECT_DOUBLE_EQ(tok.nextDouble(), 1.5);
  EXPECT_EQ(tok.nextInt(), -42);
  EXPECT_THROW(tok.nextInt(), ParseError);
}

TEST(Tokenizer, SkipStatement) {
  Tokenizer tok("A B C ; D");
  tok.skipStatement();
  EXPECT_EQ(tok.next().text, "D");
}

TEST(Tokenizer, PeekAheadAndAccept) {
  Tokenizer tok("X\nY");
  EXPECT_EQ(tok.peek().text, "X");
  EXPECT_FALSE(tok.accept("Y"));
  EXPECT_EQ(tok.peek().text, "X");  // a failed accept consumes nothing
  EXPECT_TRUE(tok.accept("X"));
  EXPECT_EQ(tok.peek().text, "Y");
  EXPECT_EQ(tok.peek().line, 2);
  EXPECT_EQ(tok.currentLine(), 2);
}

TEST(Tokenizer, EndOfInputAfterTrailingComment) {
  Tokenizer tok("A ;\n# trailing comment\n# and another");
  EXPECT_EQ(tok.next().text, "A");
  EXPECT_FALSE(tok.atEnd());
  EXPECT_EQ(tok.next().text, ";");
  EXPECT_TRUE(tok.atEnd());
  EXPECT_EQ(tok.peek().text, "<eof>");
  EXPECT_EQ(tok.peek().line, -1);
  EXPECT_FALSE(tok.accept("A"));
  EXPECT_FALSE(tok.accept("<eof>"));
  try {
    tok.next();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 1);  // the last token's line, not the comment's
    EXPECT_NE(std::string(e.what()).find("unexpected end of input"),
              std::string::npos);
  }
}

TEST(Tokenizer, CurrentLineTracksNextThenLastToken) {
  Tokenizer empty("  # only a comment\n");
  EXPECT_TRUE(empty.atEnd());
  EXPECT_EQ(empty.currentLine(), 0);

  Tokenizer tok("\nA\n\nB \"q\"\n\n");
  EXPECT_EQ(tok.currentLine(), 2);
  tok.next();
  EXPECT_EQ(tok.currentLine(), 4);
  tok.next();
  EXPECT_TRUE(tok.accept("q"));
  EXPECT_TRUE(tok.atEnd());
  EXPECT_EQ(tok.currentLine(), 4);  // accept() counts as consuming
}

// ---- LEF round-trip -----------------------------------------------------------

TEST(LefRoundTrip, PreservesTechAndLibrary) {
  const auto db = crp::testing::makeTinyDatabase();
  std::ostringstream out;
  writeLef(out, db.tech(), db.library());
  const auto [tech2, lib2] = parseLef(out.str());

  ASSERT_EQ(tech2.numLayers(), db.tech().numLayers());
  for (int i = 0; i < tech2.numLayers(); ++i) {
    const auto& a = db.tech().layer(i);
    const auto& b = tech2.layer(i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.dir, b.dir);
    EXPECT_EQ(a.pitch, b.pitch);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.spacing, b.spacing);
    EXPECT_EQ(a.minArea, b.minArea);
    EXPECT_EQ(a.offset, b.offset);
  }
  EXPECT_EQ(tech2.site.width, db.tech().site.width);
  EXPECT_EQ(tech2.site.height, db.tech().site.height);
  EXPECT_EQ(tech2.vias().size(), db.tech().vias().size());
  EXPECT_EQ(tech2.cutLayers().size(), db.tech().cutLayers().size());

  ASSERT_EQ(lib2.numMacros(), db.library().numMacros());
  for (int m = 0; m < lib2.numMacros(); ++m) {
    const auto& a = db.library().macro(m);
    const auto& b = lib2.macro(m);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.height, b.height);
    ASSERT_EQ(a.pins.size(), b.pins.size());
    for (std::size_t p = 0; p < a.pins.size(); ++p) {
      EXPECT_EQ(a.pins[p].name, b.pins[p].name);
      EXPECT_EQ(a.pins[p].dir, b.pins[p].dir);
      ASSERT_EQ(a.pins[p].shapes.size(), b.pins[p].shapes.size());
      for (std::size_t s = 0; s < a.pins[p].shapes.size(); ++s) {
        EXPECT_EQ(a.pins[p].shapes[s].layer, b.pins[p].shapes[s].layer);
        EXPECT_EQ(a.pins[p].shapes[s].rect, b.pins[p].shapes[s].rect);
      }
    }
  }
}

TEST(LefParser, RejectsGarbage) {
  EXPECT_THROW(parseLef("THIS_IS_NOT_LEF ;"), ParseError);
}

TEST(LefParser, ParsesMinimalHandWrittenLef) {
  const std::string lef = R"(
VERSION 5.8 ;
UNITS
  DATABASE MICRONS 2000 ;
END UNITS
SITE core
  CLASS CORE ;
  SIZE 0.2 BY 2.0 ;
END core
LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.4 ;
  WIDTH 0.1 ;
  SPACING 0.1 ;
END M1
MACRO AND2
  CLASS CORE ;
  SIZE 0.4 BY 2.0 ;
  PIN A
    DIRECTION INPUT ;
    PORT
      LAYER M1 ;
        RECT 0.0 0.9 0.1 1.0 ;
    END
  END A
END AND2
END LIBRARY
)";
  const auto [tech, lib] = parseLef(lef);
  EXPECT_EQ(tech.dbuPerMicron, 2000);
  EXPECT_EQ(tech.site.width, 400);
  ASSERT_EQ(tech.numLayers(), 1);
  EXPECT_EQ(tech.layer(0).pitch, 800);
  ASSERT_EQ(lib.numMacros(), 1);
  EXPECT_EQ(lib.macro(0).width, 800);
  ASSERT_EQ(lib.macro(0).pins.size(), 1u);
  EXPECT_EQ(lib.macro(0).pins[0].shapes[0].rect,
            (geom::Rect{0, 1800, 200, 2000}));
}

// ---- DEF round-trip -----------------------------------------------------------

TEST(DefRoundTrip, PreservesDesign) {
  const auto db = crp::testing::makeTinyDatabase();
  std::ostringstream out;
  writeDef(out, db);
  const db::Design design2 = parseDef(out.str(), db.tech(), db.library());

  EXPECT_EQ(design2.name, db.design().name);
  EXPECT_EQ(design2.dieArea, db.design().dieArea);
  EXPECT_EQ(design2.gcellCountX, db.design().gcellCountX);
  EXPECT_EQ(design2.gcellCountY, db.design().gcellCountY);
  ASSERT_EQ(design2.rows.size(), db.design().rows.size());
  for (std::size_t i = 0; i < design2.rows.size(); ++i) {
    EXPECT_EQ(design2.rows[i].origin, db.design().rows[i].origin);
    EXPECT_EQ(design2.rows[i].numSites, db.design().rows[i].numSites);
  }
  ASSERT_EQ(design2.components.size(), db.design().components.size());
  for (std::size_t i = 0; i < design2.components.size(); ++i) {
    EXPECT_EQ(design2.components[i].name, db.design().components[i].name);
    EXPECT_EQ(design2.components[i].macro, db.design().components[i].macro);
    EXPECT_EQ(design2.components[i].pos, db.design().components[i].pos);
    EXPECT_EQ(design2.components[i].fixed, db.design().components[i].fixed);
  }
  ASSERT_EQ(design2.nets.size(), db.design().nets.size());
  for (std::size_t i = 0; i < design2.nets.size(); ++i) {
    const auto& a = db.design().nets[i];
    const auto& b = design2.nets[i];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.pins.size(), b.pins.size());
    for (std::size_t p = 0; p < a.pins.size(); ++p) {
      EXPECT_EQ(a.pins[p].isIo(), b.pins[p].isIo());
      if (!a.pins[p].isIo()) {
        EXPECT_EQ(a.pins[p].compPin(), b.pins[p].compPin());
      } else {
        EXPECT_EQ(a.pins[p].ioPin(), b.pins[p].ioPin());
      }
    }
  }
  ASSERT_EQ(design2.ioPins.size(), db.design().ioPins.size());
  EXPECT_EQ(design2.ioPins[0].pos, db.design().ioPins[0].pos);

  // Round-tripped design must still index cleanly into a Database.
  db::Database db2(db.tech(), db.library(), design2);
  EXPECT_EQ(db2.totalHpwl(), db.totalHpwl());
}

TEST(DefParser, TracksDirectionConvention) {
  const auto base = crp::testing::makeTinyDatabase();
  const std::string def = R"(
VERSION 5.8 ;
DESIGN t ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 1000 1000 ) ;
TRACKS X 10 DO 5 STEP 20 LAYER Metal2 ;
TRACKS Y 10 DO 5 STEP 20 LAYER Metal1 ;
COMPONENTS 0 ;
END COMPONENTS
NETS 0 ;
END NETS
END DESIGN
)";
  const auto design = parseDef(def, base.tech(), base.library());
  ASSERT_EQ(design.tracks.size(), 2u);
  EXPECT_EQ(design.tracks[0].dir, db::LayerDir::kVertical);
  EXPECT_EQ(design.tracks[0].layer, 1);
  EXPECT_EQ(design.tracks[1].dir, db::LayerDir::kHorizontal);
  EXPECT_EQ(design.tracks[1].layer, 0);
  EXPECT_EQ(design.tracks[0].start, 10);
  EXPECT_EQ(design.tracks[0].count, 5);
  EXPECT_EQ(design.tracks[0].step, 20);
}

TEST(DefParser, UnknownMacroThrows) {
  const auto base = crp::testing::makeTinyDatabase();
  const std::string def = R"(
DESIGN t ;
DIEAREA ( 0 0 ) ( 10 10 ) ;
COMPONENTS 1 ;
  - u1 NO_SUCH_MACRO + PLACED ( 0 0 ) N ;
END COMPONENTS
END DESIGN
)";
  EXPECT_THROW(parseDef(def, base.tech(), base.library()), ParseError);
}

TEST(DefParser, UnknownNetPinThrows) {
  const auto base = crp::testing::makeTinyDatabase();
  const std::string def = R"(
DESIGN t ;
DIEAREA ( 0 0 ) ( 10 10 ) ;
COMPONENTS 1 ;
  - u1 INV_X1 + PLACED ( 0 0 ) N ;
END COMPONENTS
NETS 1 ;
  - n ( u1 NO_PIN ) ;
END NETS
END DESIGN
)";
  EXPECT_THROW(parseDef(def, base.tech(), base.library()), ParseError);
}

TEST(DefParser, NetPinErrorsNameTheirLine) {
  const auto base = crp::testing::makeTinyDatabase();
  const std::string head =
      "DESIGN t ;\n"
      "DIEAREA ( 0 0 ) ( 10 10 ) ;\n"
      "COMPONENTS 1 ;\n"
      "  - u1 INV_X1 + PLACED ( 0 0 ) N ;\n"
      "END COMPONENTS\n"
      "NETS 1 ;\n"
      "  - n ( u1 A )\n";
  const auto lineOf = [&](const std::string& badPin) {
    try {
      parseDef(head + "    " + badPin + " ;\nEND NETS\nEND DESIGN\n",
               base.tech(), base.library());
    } catch (const ParseError& e) {
      return e.line;
    }
    return -1;
  };
  EXPECT_EQ(lineOf("( nope A )"), 8);    // unknown component
  EXPECT_EQ(lineOf("( u1 NO_PIN )"), 8);  // unknown pin
  EXPECT_EQ(lineOf("( PIN nope )"), 8);   // unknown IO pin
}

TEST(DefParser, FixedComponentsKeepFlag) {
  const auto base = crp::testing::makeTinyDatabase();
  const std::string def = R"(
DESIGN t ;
DIEAREA ( 0 0 ) ( 10 10 ) ;
COMPONENTS 1 ;
  - u1 INV_X1 + FIXED ( 4 5 ) FS ;
END COMPONENTS
END DESIGN
)";
  const auto design = parseDef(def, base.tech(), base.library());
  ASSERT_EQ(design.components.size(), 1u);
  EXPECT_TRUE(design.components[0].fixed);
  EXPECT_EQ(design.components[0].orient, geom::Orientation::kFS);
  EXPECT_EQ(design.components[0].pos, (geom::Point{4, 5}));
}

TEST(DefParser, BlockagesParsed) {
  const auto base = crp::testing::makeTinyDatabase();
  const std::string def = R"(
DESIGN t ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
BLOCKAGES 2 ;
  - LAYER Metal1 RECT ( 0 0 ) ( 10 10 ) ;
  - PLACEMENT RECT ( 20 20 ) ( 30 30 ) ;
END BLOCKAGES
END DESIGN
)";
  const auto design = parseDef(def, base.tech(), base.library());
  ASSERT_EQ(design.blockages.size(), 2u);
  EXPECT_EQ(design.blockages[0].layer, 0);
  EXPECT_EQ(design.blockages[1].layer, db::kInvalidId);
  EXPECT_EQ(design.blockages[1].rect, (geom::Rect{20, 20, 30, 30}));
}

// ---- guides -----------------------------------------------------------------

TEST(GuideIo, RoundTrip) {
  const auto db = crp::testing::makeTinyDatabase();
  std::vector<NetGuide> guides;
  guides.push_back(NetGuide{
      "n0",
      {GuideRect{geom::Rect{0, 0, 100, 100}, 0},
       GuideRect{geom::Rect{100, 0, 200, 100}, 1}}});
  guides.push_back(NetGuide{"n1", {GuideRect{geom::Rect{0, 0, 50, 50}, 2}}});

  std::ostringstream out;
  writeGuides(out, db, guides);
  const auto parsed = parseGuides(out.str(), db.tech());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].net, "n0");
  EXPECT_EQ(parsed[0].rects, guides[0].rects);
  EXPECT_EQ(parsed[1].net, "n1");
  EXPECT_EQ(parsed[1].rects, guides[1].rects);
}

TEST(GuideIo, MalformedLineThrows) {
  const auto db = crp::testing::makeTinyDatabase();
  EXPECT_THROW(parseGuides("n0\n(\n1 2 3\n)\n", db.tech()),
               std::runtime_error);
}

TEST(GuideIo, UnknownLayerThrows) {
  const auto db = crp::testing::makeTinyDatabase();
  EXPECT_THROW(parseGuides("n0\n(\n0 0 1 1 Metal99\n)\n", db.tech()),
               std::runtime_error);
}

// ---- malformed-input robustness -------------------------------------------------

class MalformedDef : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedDef, ThrowsInsteadOfCrashing) {
  const auto base = crp::testing::makeTinyDatabase();
  EXPECT_THROW(parseDef(GetParam(), base.tech(), base.library()),
               std::exception);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MalformedDef,
    ::testing::Values(
        "DESIGN t ;\nDIEAREA ( 0 0 ( 10 10 ) ;\nEND DESIGN",     // bad paren
        "DESIGN t ;\nCOMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( x 0 ) N ;\n"
        "END COMPONENTS\nEND DESIGN",                             // bad int
        "DESIGN t ;\nROW r core 0 0 N DO ;\nEND DESIGN",          // bad row
        "WHATEVER ;",                                              // unknown kw
        "DESIGN t ;\nNETS 1 ;\n- n ( ghost A ) ;\nEND NETS\n"
        "END DESIGN"));                                            // ghost comp

class MalformedLef : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedLef, ThrowsInsteadOfCrashing) {
  EXPECT_THROW(parseLef(GetParam()), std::exception);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MalformedLef,
    ::testing::Values("GARBAGE ;",
                      "UNITS\n  DATABASE MICRONS abc ;\nEND UNITS",
                      "SITE s\n  SIZE x BY 2.0 ;\nEND s",
                      "MACRO m\n  SIZE 1 BY"));

TEST(DefParser, EmptyInputYieldsEmptyDesign) {
  const auto base = crp::testing::makeTinyDatabase();
  const auto design = parseDef("", base.tech(), base.library());
  EXPECT_TRUE(design.components.empty());
  EXPECT_TRUE(design.nets.empty());
}

TEST(LefParser, EmptyInputYieldsEmptyLibrary) {
  const auto [tech, lib] = parseLef("");
  EXPECT_EQ(tech.numLayers(), 0);
  EXPECT_EQ(lib.numMacros(), 0);
}

TEST(DefParser, CommentsIgnoredEverywhere) {
  const auto base = crp::testing::makeTinyDatabase();
  const std::string def =
      "# header comment\nDESIGN t ; # trailing\n"
      "DIEAREA ( 0 0 ) ( 10 10 ) ; # box\nEND DESIGN";
  const auto design = parseDef(def, base.tech(), base.library());
  EXPECT_EQ(design.name, "t");
  EXPECT_EQ(design.dieArea, (geom::Rect{0, 0, 10, 10}));
}

// ---- file entry points -----------------------------------------------------

TEST(FileReaders, DirectoryInputThrowsNamingThePath) {
  namespace fs = std::filesystem;
  const auto db = crp::testing::makeTinyDatabase();
  const std::string dir = fs::temp_directory_path().string();
  const auto expectNamed = [&dir](const auto& parse) {
    try {
      parse();
      ADD_FAILURE() << "expected a read error for " << dir;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot read " + dir),
                std::string::npos)
          << e.what();
    }
  };
  expectNamed([&] { parseLefFile(dir); });
  expectNamed([&] { parseDefFile(dir, db.tech(), db.library()); });
  expectNamed([&] { parseGuidesFile(dir, db.tech()); });
}

// ---- file writers -----------------------------------------------------------

TEST(FileWriters, FailedWriteThrowsAndLeavesNoFile) {
  namespace fs = std::filesystem;
  const auto db = crp::testing::makeTinyDatabase();
  const fs::path dir = fs::temp_directory_path() /
                       ("crp_writers_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path fifo = dir / "taken.def";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const fs::path missing = dir / "missing";
  EXPECT_THROW(writeDefFile((missing / "a.def").string(), db),
               std::runtime_error);
  EXPECT_THROW(
      writeLefFile((missing / "a.lef").string(), db.tech(), db.library()),
      std::runtime_error);
  EXPECT_THROW(writeGuidesFile((missing / "a.guide").string(), db, {}),
               std::runtime_error);
  // A non-regular file in the way is refused, not replaced.
  EXPECT_THROW(writeDefFile(fifo.string(), db), std::runtime_error);
  EXPECT_TRUE(fs::is_fifo(fifo));
  // Only the FIFO is left: no partial file, no temp file.
  EXPECT_FALSE(fs::exists(missing));
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator{}),
            1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace crp::lefdef\n
