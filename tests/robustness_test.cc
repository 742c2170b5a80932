// Failure injection: the environment must degrade gracefully, never crash —
// dropped tables, erroring display expressions, malformed inputs, deep
// programs, and oversized values.

#include <gtest/gtest.h>

#include <cstdio>

#include "boxes/program_io.h"
#include "db/csv.h"
#include "expr/expr.h"
#include "expr/parser.h"
#include "tioga2/environment.h"

namespace tioga2 {
namespace {

TEST(RobustnessTest, DroppedTableSurfacesAsCanvasError) {
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(10, 5).ok());
  ui::Session& session = env.session();
  std::string stations = session.AddTable("Stations").value();
  ASSERT_TRUE(session.AddViewer(stations, 0, "doomed").ok());
  ASSERT_TRUE(session.EvaluateCanvas("doomed").ok());
  // Drop the table out from under the program.
  ASSERT_TRUE(env.catalog().DropTable("Stations").ok());
  auto gone = session.EvaluateCanvas("doomed");
  EXPECT_TRUE(gone.status().IsNotFound());
  // Note: the memoized value is keyed on the table version; a vanished
  // table re-fires the source box, which reports the error.
}

TEST(RobustnessTest, ErroringDisplayExpressionSkipsTuplesNotRender) {
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(0, 5).ok());
  ui::Session& session = env.session();
  std::string previous = session.AddTable("Stations").value();
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = session.AddBox(type, params).value();
    ASSERT_TRUE(session.Connect(previous, 0, id, 0).ok());
    previous = id;
  };
  chain("SetLocation", {{"dim", "0"}, {"attr", "longitude"}});
  chain("SetLocation", {{"dim", "1"}, {"attr", "latitude"}});
  // A display whose color is malformed for stations above 100 ft: those
  // tuples error, the rest draw.
  chain("AddAttribute",
        {{"name", "d"},
         {"definition",
          "circle(0.1, if(altitude > 100.0, \"notacolor\", \"#00ff00\"), true)"}});
  chain("SetDisplay", {{"attr", "d"}});
  ASSERT_TRUE(session.AddViewer(previous, 0, "partial").ok());
  auto viewer = env.GetViewer("partial").value();
  ASSERT_TRUE(viewer->FitContent(200, 200).ok());
  render::Framebuffer fb(200, 200, draw::kWhite);
  render::RasterSurface surface(&fb);
  auto stats = viewer->RenderTo(&surface);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->tuple_errors, 0u);
  EXPECT_GT(stats->tuples_drawn, 0u);
  EXPECT_EQ(stats->tuples_drawn + stats->tuple_errors +
                stats->tuples_culled_viewport,
            15u);
}

TEST(RobustnessTest, DeepProgramChainEvaluates) {
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(10, 5).ok());
  ui::Session& session = env.session();
  std::string previous = session.AddTable("Stations").value();
  for (int i = 0; i < 200; ++i) {
    std::string box = session.AddBox("Restrict", {{"predicate", "true"}}).value();
    ASSERT_TRUE(session.Connect(previous, 0, box, 0).ok());
    previous = box;
  }
  ASSERT_TRUE(session.AddViewer(previous, 0, "deep").ok());
  auto content = session.EvaluateCanvas("deep");
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_EQ(display::AsRelation(*content)->num_rows(), 25u);
}

TEST(RobustnessTest, DeeplyNestedExpressionParses) {
  std::string source = "n";
  for (int i = 0; i < 200; ++i) source = "(" + source + " + 1)";
  auto ast = expr::ParseExpr(source);
  ASSERT_TRUE(ast.ok());
  expr::TypeEnv env =
      expr::MakeSchemaTypeEnv({{"n", types::DataType::kInt}});
  EXPECT_TRUE(expr::AnalyzeExpr(ast->get(), env).ok());
}

TEST(RobustnessTest, PathologicalNestingIsAParseErrorNotACrash) {
  // The parser recurses once per level of each construct; past the bound
  // it must return a ParseError rather than overflow the stack.
  const size_t kDeep = 20000;
  auto repeat = [](const std::string& piece, size_t n) {
    std::string out;
    out.reserve(piece.size() * n);
    for (size_t i = 0; i < n; ++i) out += piece;
    return out;
  };
  const std::string cases[] = {
      repeat("(", kDeep) + "1" + repeat(")", kDeep),
      repeat("-", kDeep) + "1",
      repeat("not ", kDeep) + "true",
      repeat("abs(", kDeep) + "1" + repeat(")", kDeep),
  };
  for (const std::string& source : cases) {
    auto ast = expr::ParseExpr(source);
    ASSERT_FALSE(ast.ok()) << source.substr(0, 12);
    EXPECT_TRUE(ast.status().IsParseError()) << ast.status().ToString();
  }
}

TEST(RobustnessTest, NestingBoundIsExact) {
  auto nested = [](size_t depth) {
    return std::string(depth, '(') + "1" + std::string(depth, ')');
  };
  EXPECT_TRUE(expr::ParseExpr(nested(expr::kMaxExprNesting)).ok());
  EXPECT_TRUE(
      expr::ParseExpr(nested(expr::kMaxExprNesting + 1)).status().IsParseError());
  // Levels are counted while open, not in total: many shallow groups parse.
  // The chain joining them is kMaxExprNesting - 1 links long, so the tree is
  // exactly at the height bound (the deepest `-` sits under every link),
  // while the groups open three times that many levels in total.
  std::string wide = "1";
  for (size_t i = 0; i + 1 < expr::kMaxExprNesting; ++i) wide += " + (-(1))";
  EXPECT_TRUE(expr::ParseExpr(wide).ok());
  EXPECT_TRUE(expr::ParseExpr(wide + " + (-(1))").status().IsParseError());
}

// Each link of a flat operator chain adds one level to the tree the parser
// builds, and compilation recurses once per level: a 20,000-term chain used
// to overflow the stack inside CompiledExpr::Compile. The chain's height is
// held to kMaxExprNesting, so it is a ParseError instead.
TEST(RobustnessTest, PathologicalOperatorChainIsAParseErrorNotACrash) {
  const size_t kTerms = 20000;
  auto chain = [](const std::string& term, const std::string& op, size_t terms) {
    std::string out = term;
    for (size_t i = 1; i < terms; ++i) out += op + term;
    return out;
  };
  const std::string cases[] = {
      chain("1", " + ", kTerms),
      chain("1", " * ", kTerms),
      chain("true", " and ", kTerms),
      chain("true", " or ", kTerms),
  };
  for (const std::string& source : cases) {
    auto ast = expr::ParseExpr(source);
    ASSERT_FALSE(ast.ok()) << source.substr(0, 12);
    EXPECT_TRUE(ast.status().IsParseError()) << ast.status().ToString();
  }
}

TEST(RobustnessTest, OperatorChainBoundIsExact) {
  auto chain = [](size_t links) {
    std::string out = "1";
    for (size_t i = 0; i < links; ++i) out += " + 1";
    return out;
  };
  auto at_bound = expr::ParseExpr(chain(expr::kMaxExprNesting));
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  // The longest accepted chain also analyzes and compiles.
  expr::TypeEnv env = expr::MakeSchemaTypeEnv({});
  auto compiled = expr::CompiledExpr::Compile(chain(expr::kMaxExprNesting), env);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(expr::ParseExpr(chain(expr::kMaxExprNesting + 1))
                  .status()
                  .IsParseError());
}

TEST(RobustnessTest, HugeStringsSurvive) {
  std::string big(100000, 'x');
  auto relation =
      db::MakeRelation({db::Column{"s", types::DataType::kString}},
                       {{types::Value::String(big)}})
          .value();
  auto csv = db::RelationToCsv(*relation).value();
  auto parsed = db::RelationFromCsv(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(db::RelationEquals(*relation, **parsed));
}

TEST(RobustnessTest, ZeroSizedViewportRenders) {
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(0, 5).ok());
  ui::Session& session = env.session();
  std::string stations = session.AddTable("Stations").value();
  ASSERT_TRUE(session.AddViewer(stations, 0, "tiny").ok());
  auto viewer = env.GetViewer("tiny").value();
  render::Framebuffer fb(1, 1, draw::kWhite);  // clamped minimum
  render::RasterSurface surface(&fb);
  EXPECT_TRUE(viewer->RenderTo(&surface).ok());
}

TEST(RobustnessTest, CsvImportExportThroughEnvironment) {
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(5, 3).ok());
  std::string path = ::testing::TempDir() + "/tioga2_env_io.csv";
  ASSERT_TRUE(env.ExportCsvTable("Employees", path).ok());
  ASSERT_TRUE(env.ImportCsvTable("Employees2", path).ok());
  auto original = env.catalog().GetTable("Employees").value();
  auto imported = env.catalog().GetTable("Employees2").value();
  EXPECT_TRUE(db::RelationEquals(*original, *imported));
  // The imported copy is a first-class table: usable in programs.
  ui::Session& session = env.session();
  std::string table = session.AddTable("Employees2").value();
  ASSERT_TRUE(session.AddViewer(table, 0, "copy").ok());
  EXPECT_TRUE(session.EvaluateCanvas("copy").ok());
  std::remove(path.c_str());
  EXPECT_TRUE(env.ImportCsvTable("Nope", path).IsIOError());
  EXPECT_TRUE(env.ExportCsvTable("Missing", "/tmp/x.csv").IsNotFound());
}

TEST(RobustnessTest, UndoAfterComplexEditSequence) {
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(10, 5).ok());
  ui::Session& session = env.session();
  std::string stations = session.AddTable("Stations").value();
  std::string restrict =
      session.AddBox("Restrict", {{"predicate", "state = \"LA\""}}).value();
  ASSERT_TRUE(session.Connect(stations, 0, restrict, 0).ok());
  std::string serialized_before =
      boxes::SerializeProgram(session.graph()).value();
  // A flurry of edits...
  std::string t = session.InsertT(restrict, 0).value();
  ASSERT_TRUE(session.AddViewer(t, 1, "dbg").ok());
  ASSERT_TRUE(
      session.ReplaceBox(restrict, "Restrict", {{"predicate", "true"}}).ok());
  // ...all unwound (InsertT, AddViewer, ReplaceBox = three snapshots).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.Undo().ok());
  }
  EXPECT_EQ(boxes::SerializeProgram(session.graph()).value(), serialized_before);
}

}  // namespace
}  // namespace tioga2
