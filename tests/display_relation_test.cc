// Tests for the extended-relation displayable type R (§2, §5): defaults,
// computed attributes, the Figure 5 editing operations, and the relational
// operations over extended relations.

#include <gtest/gtest.h>

#include "display/display_relation.h"
#include "expr/batch.h"

namespace tioga2::display {
namespace {

using db::Column;
using db::MakeRelation;
using types::DataType;
using types::Value;

DisplayRelation Cities() {
  auto base = MakeRelation(
                  {Column{"name", DataType::kString}, Column{"lon", DataType::kFloat},
                   Column{"lat", DataType::kFloat}, Column{"pop", DataType::kInt}},
                  {
                      {Value::String("NEW ORLEANS"), Value::Float(-90.08),
                       Value::Float(29.95), Value::Int(497)},
                      {Value::String("BATON ROUGE"), Value::Float(-91.15),
                       Value::Float(30.45), Value::Int(227)},
                      {Value::String("SHREVEPORT"), Value::Float(-93.75),
                       Value::Float(32.52), Value::Int(188)},
                  })
                  .value();
  return DisplayRelation::WithDefaults("Cities", base).value();
}

TEST(DisplayRelationTest, DefaultsPerSection52) {
  DisplayRelation rel = Cities();
  EXPECT_EQ(rel.Dimension(), 2u);
  EXPECT_EQ(rel.location_names(), (std::vector<std::string>{"_x", "_y"}));
  EXPECT_EQ(rel.display_name(), "_display");
  // x = 0, y = sequence number.
  EXPECT_EQ(rel.LocationOf(0).value(), (std::vector<double>{0, 0}));
  EXPECT_EQ(rel.LocationOf(2).value(), (std::vector<double>{0, 2}));
  // Default display: one text drawable per stored field, side by side.
  auto display = rel.DisplayOf(1).value();
  ASSERT_EQ(display->size(), 4u);
  EXPECT_EQ((*display)[0].kind, draw::DrawableKind::kText);
  EXPECT_NE((*display)[0].text.find("BATON ROUGE"), std::string::npos);
  EXPECT_LT((*display)[0].offset_x, (*display)[1].offset_x);
}

TEST(DisplayRelationTest, ReservedNamesRejected) {
  auto base = MakeRelation({Column{"_x", DataType::kFloat}}, {}).value();
  EXPECT_TRUE(DisplayRelation::WithDefaults("bad", base).status().IsInvalidArgument());
}

TEST(DisplayRelationTest, StoredAttributeAccess) {
  DisplayRelation rel = Cities();
  EXPECT_EQ(rel.AttributeValue(0, "name")->string_value(), "NEW ORLEANS");
  EXPECT_DOUBLE_EQ(rel.AttributeValue(2, "lon")->float_value(), -93.75);
  EXPECT_TRUE(rel.AttributeValue(0, "missing").status().IsNotFound());
  EXPECT_TRUE(rel.AttributeValue(99, "name").status().IsOutOfRange());
}

TEST(DisplayRelationTest, AddAttributeComputes) {
  DisplayRelation rel = Cities().AddAttribute("pop_k", "pop * 1000").value();
  EXPECT_EQ(rel.AttributeValue(0, "pop_k")->int_value(), 497000);
  const Attribute* attr = rel.FindAttribute("pop_k");
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->type, DataType::kInt);
  EXPECT_EQ(attr->source, AttrSource::kExpr);
}

TEST(DisplayRelationTest, AddAttributeValidation) {
  EXPECT_TRUE(Cities().AddAttribute("name", "1").status().IsAlreadyExists());
  EXPECT_TRUE(Cities().AddAttribute("", "1").status().IsInvalidArgument());
  EXPECT_TRUE(Cities().AddAttribute("bad", "nosuch + 1").status().IsNotFound());
}

TEST(DisplayRelationTest, ComputedAttributesChain) {
  DisplayRelation rel = Cities()
                            .AddAttribute("a", "pop * 2")
                            .value()
                            .AddAttribute("b", "a + 1")
                            .value();
  EXPECT_EQ(rel.AttributeValue(1, "b")->int_value(), 455);
}

TEST(DisplayRelationTest, CyclicDefinitionDetected) {
  DisplayRelation rel = Cities().AddAttribute("a", "pop").value();
  rel = rel.SetAttribute("a", "a + 1").value();  // self-reference
  EXPECT_TRUE(rel.AttributeValue(0, "a").status().IsFailedPrecondition());
}

TEST(DisplayRelationTest, SetAttributeShadowsStored) {
  DisplayRelation rel = Cities().SetAttribute("pop", "pop").value();
  // The stored column is shadowed by a computed copy referencing... itself:
  // references bind to the *stored* column at compile time, so this reads
  // the stored value, not a cycle.
  EXPECT_EQ(rel.AttributeValue(0, "pop")->int_value(), 497);
  rel = Cities().SetAttribute("pop", "42").value();
  EXPECT_EQ(rel.AttributeValue(0, "pop")->int_value(), 42);
}

TEST(DisplayRelationTest, RemoveAttributeRules) {
  DisplayRelation rel = Cities().AddAttribute("tmp", "1").value();
  EXPECT_TRUE(rel.RemoveAttribute("tmp").ok());
  // Protected: designated location dims and the active display (§5.3).
  EXPECT_TRUE(Cities().RemoveAttribute("_x").status().IsFailedPrecondition());
  EXPECT_TRUE(Cities().RemoveAttribute("_display").status().IsFailedPrecondition());
  // Referenced attributes cannot be removed.
  DisplayRelation chained = Cities()
                                .AddAttribute("a", "pop")
                                .value()
                                .AddAttribute("b", "a + 1")
                                .value();
  EXPECT_TRUE(chained.RemoveAttribute("a").status().IsFailedPrecondition());
  EXPECT_TRUE(chained.RemoveAttribute("b").ok());
}

TEST(DisplayRelationTest, SwapAttributesExchangesNames) {
  DisplayRelation rel = Cities()
                            .SetLocationAttribute(0, "lon")
                            .value()
                            .SetLocationAttribute(1, "lat")
                            .value();
  // Swapping lon and lat "rotates the canvas" (§5.3).
  DisplayRelation swapped = rel.SwapAttributes("lon", "lat").value();
  auto loc = swapped.LocationOf(0).value();
  EXPECT_DOUBLE_EQ(loc[0], 29.95);   // x now reads latitude values
  EXPECT_DOUBLE_EQ(loc[1], -90.08);
  EXPECT_TRUE(rel.SwapAttributes("lon", "name").status().IsTypeError());
  EXPECT_TRUE(rel.SwapAttributes("lon", "missing").status().IsNotFound());
}

TEST(DisplayRelationTest, ScaleAndTranslate) {
  DisplayRelation rel = Cities().ScaleAttribute("pop", 2.0).value();
  EXPECT_DOUBLE_EQ(rel.AttributeValue(0, "pop")->AsDouble(), 994.0);
  rel = rel.TranslateAttribute("pop", 6.0).value();
  EXPECT_DOUBLE_EQ(rel.AttributeValue(0, "pop")->AsDouble(), 1000.0);
  // Scale after translate multiplies the accumulated translation too:
  // (v * 2 + 6) * 10 = v * 20 + 60.
  rel = rel.ScaleAttribute("pop", 10.0).value();
  EXPECT_DOUBLE_EQ(rel.AttributeValue(0, "pop")->AsDouble(), 497.0 * 20 + 60);
  EXPECT_TRUE(Cities().ScaleAttribute("name", 2.0).status().IsTypeError());
  EXPECT_TRUE(Cities().TranslateAttribute("name", 2.0).status().IsTypeError());
}

TEST(DisplayRelationTest, TransformsVisibleThroughReferences) {
  // A computed attribute referencing a scaled stored attribute sees the
  // scaled value.
  DisplayRelation rel = Cities()
                            .AddAttribute("double_pop", "pop * 2")
                            .value()
                            .ScaleAttribute("pop", 10.0)
                            .value();
  EXPECT_DOUBLE_EQ(rel.AttributeValue(0, "double_pop")->AsDouble(), 9940.0);
}

TEST(DisplayRelationTest, CombineDisplays) {
  DisplayRelation rel = Cities()
                            .AddAttribute("dot", "circle(2)")
                            .value()
                            .AddAttribute("label", "text(name, 10)")
                            .value()
                            .CombineDisplays("both", "dot", "label", 0, -12)
                            .value();
  auto combined = rel.AttributeValue(0, "both").value();
  ASSERT_TRUE(combined.is_display());
  ASSERT_EQ(combined.display_value()->size(), 2u);
  EXPECT_DOUBLE_EQ((*combined.display_value())[1].offset_y, -12);
  EXPECT_TRUE(
      Cities().CombineDisplays("x2", "_display", "name", 0, 0).status().IsTypeError());
  EXPECT_TRUE(
      Cities().CombineDisplays("name", "_display", "_display", 0, 0).status()
          .IsAlreadyExists());
}

TEST(DisplayRelationTest, LocationDesignation) {
  DisplayRelation rel = Cities()
                            .SetLocationAttribute(0, "lon")
                            .value()
                            .SetLocationAttribute(1, "lat")
                            .value()
                            .AddLocationDimension("pop")
                            .value();
  EXPECT_EQ(rel.Dimension(), 3u);
  auto loc = rel.LocationOf(0).value();
  EXPECT_DOUBLE_EQ(loc[0], -90.08);
  EXPECT_DOUBLE_EQ(loc[1], 29.95);
  EXPECT_DOUBLE_EQ(loc[2], 497.0);
  // Slider dims can be removed, x and y cannot.
  EXPECT_EQ(rel.RemoveLocationDimension(2).value().Dimension(), 2u);
  EXPECT_TRUE(rel.RemoveLocationDimension(0).status().IsFailedPrecondition());
  EXPECT_TRUE(rel.RemoveLocationDimension(9).status().IsOutOfRange());
  EXPECT_TRUE(Cities().SetLocationAttribute(0, "name").status().IsTypeError());
  EXPECT_TRUE(Cities().SetLocationAttribute(5, "lon").status().IsOutOfRange());
  EXPECT_TRUE(Cities().AddLocationDimension("name").status().IsTypeError());
}

TEST(DisplayRelationTest, AlternativeDisplays) {
  DisplayRelation rel = Cities().AddAttribute("alt", "circle(1)").value();
  EXPECT_EQ(rel.AlternativeDisplays(),
            (std::vector<std::string>{"_display", "alt"}));
  rel = rel.SetDisplayAttribute("alt").value();
  EXPECT_EQ(rel.display_name(), "alt");
  EXPECT_EQ((*rel.DisplayOf(0).value())[0].kind, draw::DrawableKind::kCircle);
  EXPECT_TRUE(Cities().SetDisplayAttribute("pop").status().IsTypeError());
  EXPECT_TRUE(Cities().SetDisplayAttribute("zzz").status().IsNotFound());
}

TEST(DisplayRelationTest, ElevationRange) {
  DisplayRelation rel = Cities().SetElevationRange(2, 10);
  EXPECT_TRUE(rel.elevation_range().Contains(5));
  EXPECT_FALSE(rel.elevation_range().Contains(11));
  // Reversed bounds normalize.
  rel = Cities().SetElevationRange(10, 2);
  EXPECT_EQ(rel.elevation_range().min, 2);
  // Default range is the whole top side: [0, +inf).
  EXPECT_TRUE(Cities().elevation_range().Contains(1e12));
  EXPECT_TRUE(Cities().elevation_range().Contains(0));
  EXPECT_FALSE(Cities().elevation_range().Contains(-1e-9));
}

TEST(DisplayRelationTest, RestrictOverComputedAttributes) {
  DisplayRelation rel = Cities().AddAttribute("big", "pop > 200").value();
  DisplayRelation filtered = rel.Restrict("big").value();
  EXPECT_EQ(filtered.num_rows(), 2u);
  // Attributes and designations survive.
  EXPECT_NE(filtered.FindAttribute("big"), nullptr);
  EXPECT_TRUE(rel.Restrict("pop").status().IsTypeError());
}

TEST(DisplayRelationTest, ProjectRemapsComputedReferences) {
  DisplayRelation rel = Cities().AddAttribute("dbl", "pop * 2").value();
  DisplayRelation projected = rel.Project({"pop", "name"}).value();
  // "pop" moved from stored index 3 to 0; the computed def must follow.
  EXPECT_EQ(projected.AttributeValue(0, "dbl")->int_value(), 994);
  EXPECT_EQ(projected.base()->schema()->ToString(), "(pop:int, name:string)");
  EXPECT_EQ(projected.AttributeValue(0, "name")->string_value(), "NEW ORLEANS");
}

TEST(DisplayRelationTest, ProjectDroppingReferencedColumnFails) {
  DisplayRelation rel = Cities().AddAttribute("dbl", "pop * 2").value();
  EXPECT_TRUE(rel.Project({"name"}).status().IsFailedPrecondition());
}

TEST(DisplayRelationTest, ProjectDroppingDesignatedAttributeFails) {
  DisplayRelation rel = Cities().SetLocationAttribute(0, "lon").value();
  EXPECT_TRUE(rel.Project({"name"}).status().IsFailedPrecondition());
  // Dropping an undesignated, unreferenced stored column is fine.
  EXPECT_TRUE(rel.Project({"lon", "name"}).ok());
}

TEST(DisplayRelationTest, SampleKeepsAttributes) {
  DisplayRelation rel = Cities().AddAttribute("dbl", "pop * 2").value();
  DisplayRelation sampled = rel.Sample(1.0, 7).value();
  EXPECT_EQ(sampled.num_rows(), 3u);
  EXPECT_NE(sampled.FindAttribute("dbl"), nullptr);
  EXPECT_EQ(rel.Sample(0.0, 7).value().num_rows(), 0u);
}

TEST(DisplayRelationTest, WithBaseChecksSchema) {
  DisplayRelation rel = Cities();
  EXPECT_TRUE(rel.WithBase(rel.base()).ok());
  auto other = MakeRelation({Column{"v", DataType::kInt}}, {}).value();
  EXPECT_TRUE(rel.WithBase(other).status().IsTypeError());
}

TEST(DisplayRelationTest, NullLocationIsError) {
  auto base = MakeRelation({Column{"x", DataType::kFloat}}, {{Value::Null()}}).value();
  DisplayRelation rel = DisplayRelation::WithDefaults("N", base)
                            .value()
                            .SetLocationAttribute(0, "x")
                            .value();
  EXPECT_TRUE(rel.LocationOf(0).status().IsInvalidArgument());
}

TEST(DisplayRelationTest, ToStringShowsComputedValues) {
  std::string text = Cities().AddAttribute("dbl", "pop * 2").value().ToString();
  EXPECT_NE(text.find("dbl"), std::string::npos);
  EXPECT_NE(text.find("994"), std::string::npos);
}

// SliceEvaluator, the renderer's ranged entry point, agrees with LocationOf
// and AttributeValue row by row for every attribute source a location can
// have (stored, scaled stored, the translated row-number default, plain and
// translated expressions) over a selection that skips rows and hits nulls.
TEST(DisplayRelationTest, SliceEvaluatorMatchesPerRowEvaluation) {
  std::vector<db::Tuple> rows;
  for (int r = 0; r < 7; ++r) {
    rows.push_back({r == 2 ? Value::Null() : Value::Float(-90.5 + r),
                    Value::Float(29.25 + 0.5 * r),
                    r == 5 ? Value::Null() : Value::Int(100 + 10 * r)});
  }
  auto base = MakeRelation({Column{"lon", DataType::kFloat},
                            Column{"lat", DataType::kFloat},
                            Column{"pop", DataType::kInt}},
                           std::move(rows))
                  .value();
  DisplayRelation plain = DisplayRelation::WithDefaults("slices", base)
                              .value()
                              .AddAttribute("d", "circle(float(pop), \"#ff0000\")")
                              .value()
                              .SetDisplayAttribute("d")
                              .value();
  DisplayRelation scaled = plain.ScaleAttribute("lon", 2.0)
                               .value()
                               .SetLocationAttribute(0, "lon")
                               .value()
                               .TranslateAttribute("_y", 3.0)
                               .value();
  DisplayRelation computed = plain.AddAttribute("px", "lon * 2.0 + 1.0")
                                 .value()
                                 .TranslateAttribute("px", 0.5)
                                 .value()
                                 .SetLocationAttribute(0, "px")
                                 .value()
                                 .SetLocationAttribute(1, "pop")
                                 .value()
                                 .AddLocationDimension("lat")
                                 .value();
  const expr::Selection sel = {0, 2, 3, 5, 6};
  db::ExecPolicy policy;
  policy.vectorized = true;
  for (const DisplayRelation& rel : {scaled, computed}) {
    SliceEvaluator evaluator(rel, policy);
    std::vector<uint8_t> valid(sel.size(), 1);
    std::vector<std::vector<double>> values(rel.Dimension());
    for (size_t d = 0; d < rel.Dimension(); ++d) {
      ASSERT_TRUE(evaluator.Location(d, sel, &values[d], &valid).ok());
    }
    ASSERT_TRUE(evaluator.DisplayBatchable());
    auto displays = evaluator.Displays(sel);
    ASSERT_TRUE(displays.ok()) << displays.status().message();
    for (size_t k = 0; k < sel.size(); ++k) {
      SCOPED_TRACE("row " + std::to_string(sel[k]));
      auto location = rel.LocationOf(sel[k]);
      ASSERT_EQ(location.ok(), valid[k] != 0);
      for (size_t d = 0; location.ok() && d < rel.Dimension(); ++d) {
        EXPECT_EQ(values[d][k], location.value()[d]);
      }
      EXPECT_EQ(displays.value().ValueAt(k).ToString(),
                rel.AttributeValue(sel[k], "d").value().ToString());
    }
  }
  // The default text display has no batch form.
  EXPECT_FALSE(SliceEvaluator(DisplayRelation::WithDefaults("t", base).value(), policy)
                   .DisplayBatchable());
}

}  // namespace
}  // namespace tioga2::display
