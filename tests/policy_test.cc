// Tests for the policy engine: expressions, rules, XML loading, standard
// actions driving the swapping layer.
#include <gtest/gtest.h>

#include <map>

#include "test_support.h"

namespace obiswap::policy {
namespace {

using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;

// ----------------------------------------------------------- expressions --

class ExprFixture : public ::testing::Test {
 protected:
  ExprFixture() {
    props_.SetReal("mem.used_ratio", 0.9);
    props_.SetInt("net.nearby_stores", 2);
    props_.SetInt("zero", 0);
  }

  double Eval(const std::string& text) {
    auto expr = ParseExpr(text);
    OBISWAP_CHECK(expr.ok());
    auto value = (*expr)->Eval(props_);
    OBISWAP_CHECK(value.ok());
    return *value;
  }

  context::PropertyRegistry props_;
};

TEST_F(ExprFixture, Arithmetic) {
  EXPECT_DOUBLE_EQ(Eval("1 + 2 * 3"), 7.0);
  EXPECT_DOUBLE_EQ(Eval("(1 + 2) * 3"), 9.0);
  EXPECT_DOUBLE_EQ(Eval("10 / 4"), 2.5);
  EXPECT_DOUBLE_EQ(Eval("-3 + 1"), -2.0);
  EXPECT_DOUBLE_EQ(Eval("2 - 3 - 4"), -5.0);  // left associative
}

TEST_F(ExprFixture, Comparisons) {
  EXPECT_DOUBLE_EQ(Eval("1 < 2"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("2 <= 2"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("3 > 4"), 0.0);
  EXPECT_DOUBLE_EQ(Eval("4 >= 5"), 0.0);
  EXPECT_DOUBLE_EQ(Eval("1 == 1"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("1 != 1"), 0.0);
}

TEST_F(ExprFixture, WordAliasesMatchSymbols) {
  EXPECT_DOUBLE_EQ(Eval("1 lt 2"), Eval("1 < 2"));
  EXPECT_DOUBLE_EQ(Eval("2 le 2"), Eval("2 <= 2"));
  EXPECT_DOUBLE_EQ(Eval("3 gt 4"), Eval("3 > 4"));
  EXPECT_DOUBLE_EQ(Eval("4 ge 5"), Eval("4 >= 5"));
  EXPECT_DOUBLE_EQ(Eval("1 eq 1"), Eval("1 == 1"));
  EXPECT_DOUBLE_EQ(Eval("1 ne 1"), Eval("1 != 1"));
}

TEST_F(ExprFixture, Logic) {
  EXPECT_DOUBLE_EQ(Eval("1 and 1"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("1 and 0"), 0.0);
  EXPECT_DOUBLE_EQ(Eval("0 or 1"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("not 0"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("not 3"), 0.0);
  // Precedence: comparison binds tighter than and/or.
  EXPECT_DOUBLE_EQ(Eval("1 < 2 and 3 < 4"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("1 > 2 or 3 < 4"), 1.0);
}

TEST_F(ExprFixture, ShortCircuitSkipsErrors) {
  // "zero != 0 and missing > 1" would fail on `missing`, but the left side
  // is false so the right side never evaluates.
  EXPECT_DOUBLE_EQ(Eval("zero != 0 and missing_prop > 1"), 0.0);
  EXPECT_DOUBLE_EQ(Eval("1 == 1 or missing_prop > 1"), 1.0);
}

TEST_F(ExprFixture, PropertiesResolve) {
  EXPECT_DOUBLE_EQ(Eval("mem.used_ratio ge 0.85"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("net.nearby_stores gt 0 and mem.used_ratio lt 1"),
                   1.0);
}

TEST_F(ExprFixture, UnknownPropertyErrors) {
  auto expr = ParseExpr("missing_prop > 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->Eval(props_).status().code(), StatusCode::kNotFound);
}

TEST_F(ExprFixture, ParseErrors) {
  EXPECT_FALSE(ParseExpr("").ok());
  EXPECT_FALSE(ParseExpr("1 +").ok());
  EXPECT_FALSE(ParseExpr("(1").ok());
  EXPECT_FALSE(ParseExpr("1 = 2").ok());
  EXPECT_FALSE(ParseExpr("1 ? 2").ok());
  EXPECT_FALSE(ParseExpr("1 2").ok());
}

TEST_F(ExprFixture, DivisionByZeroIsAnEvalError) {
  auto expr = ParseExpr("1 / zero");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE((*expr)->Eval(props_).ok());
}

TEST_F(ExprFixture, EvalConditionConvenience) {
  EXPECT_TRUE(*EvalCondition("mem.used_ratio > 0.5", props_));
  EXPECT_FALSE(*EvalCondition("mem.used_ratio > 0.95", props_));
}

// ---------------------------------------------------------------- engine --

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() : engine_(bus_, props_) {
    OBISWAP_CHECK(engine_
                      .RegisterAction("count",
                                      [this](const context::Event&,
                                             const ActionParams& params) {
                                        ++fired_;
                                        last_params_ = params;
                                        return OkStatus();
                                      })
                      .ok());
    OBISWAP_CHECK(engine_
                      .RegisterAction("fail",
                                      [](const context::Event&,
                                         const ActionParams&) {
                                        return InternalError("boom");
                                      })
                      .ok());
  }

  PolicyRule Rule(const std::string& name, const std::string& on,
                  const std::string& when, const std::string& action) {
    PolicyRule rule;
    rule.name = name;
    rule.on_event = on;
    rule.action = action;
    if (!when.empty()) {
      rule.condition_text = when;
      rule.condition = std::move(ParseExpr(when)).value();
    }
    return rule;
  }

  context::EventBus bus_;
  context::PropertyRegistry props_;
  PolicyEngine engine_;
  int fired_ = 0;
  ActionParams last_params_;
};

TEST_F(EngineFixture, UnconditionalRuleFiresOnItsEvent) {
  ASSERT_TRUE(engine_.AddRule(Rule("r", "tick", "", "count")).ok());
  bus_.Publish(context::Event("tick"));
  bus_.Publish(context::Event("tock"));
  EXPECT_EQ(fired_, 1);
  EXPECT_EQ(engine_.stats().actions_fired, 1u);
}

TEST_F(EngineFixture, ConditionGatesAction) {
  props_.SetInt("load", 1);
  ASSERT_TRUE(engine_.AddRule(Rule("r", "tick", "load > 5", "count")).ok());
  bus_.Publish(context::Event("tick"));
  EXPECT_EQ(fired_, 0);
  EXPECT_EQ(engine_.stats().conditions_false, 1u);
  props_.SetInt("load", 9);
  bus_.Publish(context::Event("tick"));
  EXPECT_EQ(fired_, 1);
}

TEST_F(EngineFixture, ConditionErrorIsCountedNotFatal) {
  ASSERT_TRUE(engine_.AddRule(Rule("r", "tick", "ghost > 1", "count")).ok());
  bus_.Publish(context::Event("tick"));
  EXPECT_EQ(fired_, 0);
  EXPECT_EQ(engine_.stats().condition_errors, 1u);
}

TEST_F(EngineFixture, ActionFailureCounted) {
  ASSERT_TRUE(engine_.AddRule(Rule("r", "tick", "", "fail")).ok());
  bus_.Publish(context::Event("tick"));
  EXPECT_EQ(engine_.stats().action_failures, 1u);
}

TEST_F(EngineFixture, UnknownActionRejectedAtAddTime) {
  EXPECT_EQ(engine_.AddRule(Rule("r", "tick", "", "ghost-action")).code(),
            StatusCode::kNotFound);
}

TEST_F(EngineFixture, PriorityOrdersExecution) {
  std::vector<std::string> order;
  ASSERT_TRUE(engine_
                  .RegisterAction("a",
                                  [&](const context::Event&,
                                      const ActionParams&) {
                                    order.push_back("a");
                                    return OkStatus();
                                  })
                  .ok());
  ASSERT_TRUE(engine_
                  .RegisterAction("b",
                                  [&](const context::Event&,
                                      const ActionParams&) {
                                    order.push_back("b");
                                    return OkStatus();
                                  })
                  .ok());
  PolicyRule low = Rule("low", "tick", "", "a");
  low.priority = 1;
  PolicyRule high = Rule("high", "tick", "", "b");
  high.priority = 10;
  ASSERT_TRUE(engine_.AddRule(std::move(low)).ok());
  ASSERT_TRUE(engine_.AddRule(std::move(high)).ok());
  bus_.Publish(context::Event("tick"));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "b");
  EXPECT_EQ(order[1], "a");
}

TEST_F(EngineFixture, LoadsPoliciesFromXml) {
  const char* xml = R"(
    <policies>
      <policy name="one" on="tick" priority="5"
              when="mem.used_ratio ge 0.5">
        <action name="count">
          <param name="mode" value="gentle"/>
        </action>
      </policy>
      <policy name="two" on="tock">
        <action name="count"/>
      </policy>
    </policies>)";
  auto added = engine_.LoadXml(xml);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 2u);
  props_.SetReal("mem.used_ratio", 0.9);
  bus_.Publish(context::Event("tick"));
  EXPECT_EQ(fired_, 1);
  EXPECT_EQ(last_params_.at("mode"), "gentle");
  bus_.Publish(context::Event("tock"));
  EXPECT_EQ(fired_, 2);
}

TEST_F(EngineFixture, XmlErrorsRejected) {
  EXPECT_FALSE(engine_.LoadXml("<wrong/>").ok());
  EXPECT_FALSE(engine_.LoadXml("<policies><policy/></policies>").ok());
  EXPECT_FALSE(engine_
                   .LoadXml("<policies><policy name=\"x\" on=\"t\">"
                            "</policy></policies>")
                   .ok());
  EXPECT_FALSE(engine_
                   .LoadXml("<policies><policy name=\"x\" on=\"t\" "
                            "when=\"1 +\"><action name=\"count\"/>"
                            "</policy></policies>")
                   .ok());
}

// ------------------------------------------- standard actions integration --

TEST(PolicyIntegrationTest, MemoryPressurePolicyDrivesSwapOut) {
  MiddlewareWorld world{swap::SwappingManager::Options(),
                        /*heap_capacity=*/200 * 1024};
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 10 * 1024 * 1024);

  context::PropertyRegistry props;
  context::MemoryMonitor memory(world.rt.heap(), world.bus, props, 0.40,
                                0.30);
  PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(RegisterSwapActions(engine, world.rt, world.manager).ok());
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="relieve-pressure" on="memory-pressure"
              when="net.nearby_stores gt 0">
        <action name="swap-out-victim"/>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  props.SetInt("net.nearby_stores", 1);

  BuildClusteredList(world.rt, world.manager, node_cls, 400, 50, "head");
  memory.Poll();  // crosses the pressure threshold -> policy fires
  EXPECT_GT(engine.stats().actions_fired, 0u);
  EXPECT_GT(world.manager.stats().swap_outs, 0u);
  auto sum = ::obiswap::testing::SumList(world.rt, "head");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 400 * 399 / 2);
}

TEST(PolicyIntegrationTest, SwapOutVictimLowersUsedRatioAtOnce) {
  // A swap-out frees its members itself: mem.used_ratio falls by the
  // cluster's bytes (less the replacement it leaves) with no collection.
  constexpr size_t kCapacity = 200 * 1024;
  MiddlewareWorld world{swap::SwappingManager::Options(), kCapacity};
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 10 * 1024 * 1024);
  context::PropertyRegistry props;
  context::MemoryMonitor memory(world.rt.heap(), world.bus, props);
  std::vector<SwapClusterId> clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 200, 50, "head");
  world.rt.heap().Collect();
  std::map<SwapClusterId, size_t> member_bytes;
  for (SwapClusterId id : clusters) {
    for (runtime::Object* member : world.manager.registry().LiveMembers(id))
      member_bytes[id] += member->ApproxBytes();
  }
  memory.Poll();
  const double ratio_before = *props.GetReal("mem.used_ratio");
  const runtime::Heap::Stats before = world.rt.heap().stats();

  auto victim = world.manager.SwapOutVictim();
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  const runtime::Heap::Stats& after = world.rt.heap().stats();
  EXPECT_EQ(after.collections, before.collections);
  EXPECT_EQ(after.bytes_freed - before.bytes_freed, member_bytes[*victim]);
  const size_t replacement_bytes =
      after.bytes_allocated - before.bytes_allocated;
  memory.Poll();
  EXPECT_NEAR(ratio_before - *props.GetReal("mem.used_ratio"),
              static_cast<double>(member_bytes[*victim] - replacement_bytes) /
                  kCapacity,
              1e-12);
}

TEST(PolicyIntegrationTest, ExplicitSwapActionsWork) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 10 * 1024 * 1024);
  context::PropertyRegistry props;
  PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(RegisterSwapActions(engine, world.rt, world.manager).ok());
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 10, 5, "head");
  std::string cluster_str = clusters[0].ToString();
  auto added = engine.LoadXml(
      "<policies><policy name=\"evict\" on=\"app-idle\">"
      "<action name=\"swap-out\"><param name=\"cluster\" value=\"" +
      cluster_str +
      "\"/></action></policy></policies>");
  ASSERT_TRUE(added.ok());
  world.bus.Publish(context::Event("app-idle"));
  EXPECT_EQ(world.manager.StateOf(clusters[0]), swap::SwapState::kSwapped);
}

TEST(PolicyIntegrationTest, SwapCacheBytesAction) {
  MiddlewareWorld world;
  context::PropertyRegistry props;
  PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(RegisterSwapActions(engine, world.rt, world.manager).ok());
  ASSERT_EQ(world.manager.payload_cache().budget_bytes(), 0u);
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="warm-cache" on="app-idle">
        <action name="set-swap-cache-bytes">
          <param name="bytes" value="262144"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  world.bus.Publish(context::Event("app-idle"));
  EXPECT_EQ(world.manager.payload_cache().budget_bytes(), 262144u);
  EXPECT_EQ(world.manager.options().swap_in_cache_bytes, 262144u);
}

TEST(PolicyIntegrationTest, ReplicationClusterSizeAction) {
  runtime::Runtime server_rt(9);
  replication::ReplicationServer server(server_rt, 4);
  context::EventBus bus;
  context::PropertyRegistry props;
  PolicyEngine engine(bus, props);
  ASSERT_TRUE(RegisterReplicationActions(engine, server).ok());
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="bigger-grain" on="connectivity-changed"
              when="net.nearby_free_bytes gt 1000000">
        <action name="set-replication-cluster-size">
          <param name="size" value="64"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok());
  props.SetInt("net.nearby_free_bytes", 5'000'000);
  bus.Publish(context::Event(context::kEventConnectivityChanged));
  EXPECT_EQ(server.cluster_size(), 64u);
}

TEST(PolicyIntegrationTest, InjectFaultActionArmsTheInjector) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 10 * 1024 * 1024);
  swap::FaultInjector faults;
  world.manager.AttachFaultInjector(&faults);
  context::PropertyRegistry props;
  PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(RegisterSwapActions(engine, world.rt, world.manager).ok());
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 10, 5, "head");
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="chaos-drill" on="chaos-drill">
        <action name="inject-fault">
          <param name="point" value="swap_out.ship_replica"/>
          <param name="kind" value="error"/>
          <param name="nth" value="1"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_EQ(faults.pending_scripts(), 0u);
  world.bus.Publish(context::Event("chaos-drill"));
  ASSERT_EQ(faults.pending_scripts(), 1u);

  // The armed one-shot fault fails the next swap-out through its normal
  // error path; the one after succeeds.
  EXPECT_FALSE(world.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(faults.stats().errors, 1u);
  EXPECT_EQ(faults.pending_scripts(), 0u);
  EXPECT_TRUE(world.manager.SwapOut(clusters[0]).ok());
}

TEST(PolicyIntegrationTest, InjectFaultActionValidatesItsParams) {
  MiddlewareWorld world;
  context::PropertyRegistry props;
  PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(RegisterSwapActions(engine, world.rt, world.manager).ok());
  // No injector attached: the action registers but refuses to fire.
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="no-injector" on="chaos-drill">
        <action name="inject-fault">
          <param name="point" value="swap_out.serialize"/>
          <param name="kind" value="crash"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  world.bus.Publish(context::Event("chaos-drill"));
  EXPECT_GT(engine.stats().action_failures, 0u);

  swap::FaultInjector faults;
  world.manager.AttachFaultInjector(&faults);
  auto bad_kind = engine.LoadXml(R"(
    <policies>
      <policy name="bad-kind" on="bad-kind">
        <action name="inject-fault">
          <param name="point" value="swap_out.serialize"/>
          <param name="kind" value="explode"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(bad_kind.ok());
  uint64_t failures = engine.stats().action_failures;
  world.bus.Publish(context::Event("bad-kind"));
  EXPECT_GT(engine.stats().action_failures, failures);
  EXPECT_EQ(faults.pending_scripts(), 0u);
}

}  // namespace
}  // namespace obiswap::policy
