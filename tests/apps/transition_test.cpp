#include "apps/transition_graph.hpp"

#include <gtest/gtest.h>

namespace ivt::apps {
namespace {

using dataflow::Schema;
using dataflow::Table;
using dataflow::TableBuilder;
using dataflow::Value;
using dataflow::ValueType;

Table state_column(const std::vector<std::string>& states) {
  Schema schema{{{"t", ValueType::Int64}, {"mode", ValueType::String}}};
  TableBuilder b(schema, 0);
  std::int64_t t = 0;
  for (const std::string& s : states) {
    b.append_row({Value{t++}, Value{s}});
  }
  return b.build();
}

TEST(TransitionGraphTest, CountsTransitions) {
  const auto graph = TransitionGraph::from_column(
      state_column({"a", "b", "a", "b", "c"}), "mode");
  EXPECT_EQ(graph.num_nodes(), 3u);
  EXPECT_EQ(graph.num_transitions(), 4u);
  const auto edges = graph.edges();
  ASSERT_EQ(edges.size(), 3u);  // a->b (x2), b->a, b->c
}

TEST(TransitionGraphTest, SelfLoopsCollapsed) {
  const auto graph = TransitionGraph::from_column(
      state_column({"a", "a", "a", "b"}), "mode");
  EXPECT_EQ(graph.num_transitions(), 1u);  // only a->b
}

TEST(TransitionGraphTest, ProbabilitiesNormalizePerSource) {
  const auto graph = TransitionGraph::from_column(
      state_column({"a", "b", "a", "b", "a", "c"}), "mode");
  for (const auto& edge : graph.edges()) {
    if (edge.from == "a") {
      // a -> b twice, a -> c once.
      if (edge.to == "b") {
        EXPECT_NEAR(edge.probability, 2.0 / 3.0, 1e-9);
      }
      if (edge.to == "c") {
        EXPECT_NEAR(edge.probability, 1.0 / 3.0, 1e-9);
      }
    }
  }
}

TEST(TransitionGraphTest, RareTransitionsSortedAscending) {
  std::vector<std::string> states;
  for (int i = 0; i < 50; ++i) {
    states.push_back("ok");
    states.push_back("busy");
  }
  states.push_back("error");  // rare: busy -> error once
  const auto graph =
      TransitionGraph::from_column(state_column(states), "mode");
  const auto rare = graph.rare_transitions(0.05);
  ASSERT_EQ(rare.size(), 1u);
  EXPECT_EQ(rare[0].to, "error");
  EXPECT_LE(rare[0].probability, 0.05);
}

TEST(TransitionGraphTest, MinCountFilter) {
  const auto graph = TransitionGraph::from_column(
      state_column({"a", "b", "c"}), "mode");
  EXPECT_TRUE(graph.rare_transitions(1.0, 5).empty());
  EXPECT_EQ(graph.rare_transitions(1.0, 1).size(), 2u);
}

TEST(TransitionGraphTest, FrequentPathTo) {
  // Chain: start -> middle -> error dominates.
  std::vector<std::string> states;
  for (int i = 0; i < 10; ++i) {
    states.push_back("start");
    states.push_back("middle");
    states.push_back("error");
  }
  const auto graph =
      TransitionGraph::from_column(state_column(states), "mode");
  const auto path = graph.frequent_path_to("error", 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], "start");
  EXPECT_EQ(path[1], "middle");
  EXPECT_EQ(path[2], "error");
}

TEST(TransitionGraphTest, PathStopsAtUnknownTarget) {
  const auto graph = TransitionGraph::from_column(
      state_column({"a", "b"}), "mode");
  const auto path = graph.frequent_path_to("zz", 5);
  EXPECT_EQ(path, (std::vector<std::string>{"zz"}));
}

TEST(TransitionGraphTest, PathAvoidsCycles) {
  const auto graph = TransitionGraph::from_column(
      state_column({"a", "b", "a", "b", "a", "b"}), "mode");
  const auto path = graph.frequent_path_to("b", 10);
  EXPECT_LE(path.size(), 2u);  // a -> b, no infinite a-b-a-b
}

TEST(TransitionGraphTest, JointStatesFromColumns) {
  Schema schema{{{"t", ValueType::Int64},
                 {"x", ValueType::String},
                 {"y", ValueType::String}}};
  TableBuilder b(schema, 0);
  b.append_row({Value{std::int64_t{0}}, Value{"1"}, Value{"a"}});
  b.append_row({Value{std::int64_t{1}}, Value{"1"}, Value{"b"}});
  b.append_row({Value{std::int64_t{2}}, Value{"2"}, Value{"b"}});
  const auto graph = TransitionGraph::from_columns(b.build(), {"x", "y"});
  EXPECT_EQ(graph.num_transitions(), 2u);
  const auto edges = graph.edges();
  EXPECT_EQ(edges[0].from, "1|a");
}

TEST(TransitionGraphTest, NullCellsRenderAsDash) {
  Schema schema{{{"t", ValueType::Int64}, {"x", ValueType::String}}};
  TableBuilder b(schema, 0);
  b.append_row({Value{std::int64_t{0}}, Value{}});
  b.append_row({Value{std::int64_t{1}}, Value{"v"}});
  const auto graph = TransitionGraph::from_columns(b.build(), {"x"});
  EXPECT_EQ(graph.edges()[0].from, "-");
}

TEST(TransitionGraphTest, DotOutputContainsEdges) {
  const auto graph = TransitionGraph::from_column(
      state_column({"a", "b"}), "mode");
  const std::string dot = graph.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -> \"b\""), std::string::npos);
}

TEST(TransitionGraphTest, EmptyTable) {
  const auto graph =
      TransitionGraph::from_column(state_column({}), "mode");
  EXPECT_EQ(graph.num_nodes(), 0u);
  EXPECT_EQ(graph.num_transitions(), 0u);
}

}  // namespace
}  // namespace ivt::apps
