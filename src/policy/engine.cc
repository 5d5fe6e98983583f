#include "policy/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "xml/parser.h"

namespace obiswap::policy {

PolicyEngine::PolicyEngine(context::EventBus& bus,
                           context::PropertyRegistry& props)
    : bus_(bus), props_(props) {
  bus_token_ = bus_.SubscribeAll(
      [this](const context::Event& event) { OnEvent(event); });
}

PolicyEngine::~PolicyEngine() { bus_.Unsubscribe(bus_token_); }

Status PolicyEngine::RegisterAction(const std::string& name,
                                    ActionFn action) {
  if (actions_.count(name) > 0)
    return AlreadyExistsError("action '" + name + "' already registered");
  actions_.emplace(name, std::move(action));
  return OkStatus();
}

Status PolicyEngine::AddRule(PolicyRule rule) {
  if (rule.on_event.empty())
    return InvalidArgumentError("rule '" + rule.name + "' has no event");
  if (actions_.count(rule.action) == 0)
    return NotFoundError("rule '" + rule.name + "' names unknown action '" +
                         rule.action + "'");
  rules_.push_back(std::move(rule));
  // Keep rules ordered: higher priority first (stable for equal priority).
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const PolicyRule& a, const PolicyRule& b) {
                     return a.priority > b.priority;
                   });
  return OkStatus();
}

Result<size_t> PolicyEngine::LoadXml(const std::string& xml_text) {
  xml::Tape doc;
  OBISWAP_RETURN_IF_ERROR(doc.Parse(xml_text));
  constexpr uint32_t kRoot = 0;
  if (!doc.IsElement(kRoot, "policies"))
    return InvalidArgumentError("expected <policies> root");
  size_t added = 0;
  for (uint32_t policy_el = doc.FindChild(kRoot, "policy"); policy_el != 0;
       policy_el = doc.FindSibling(policy_el, "policy")) {
    PolicyRule rule;
    OBISWAP_ASSIGN_OR_RETURN(rule.name, doc.GetAttr(policy_el, "name"));
    OBISWAP_ASSIGN_OR_RETURN(rule.on_event, doc.GetAttr(policy_el, "on"));
    OBISWAP_ASSIGN_OR_RETURN(int64_t priority,
                             doc.GetIntAttrOr(policy_el, "priority", 0));
    rule.priority = static_cast<int>(priority);
    if (const std::string_view* when = doc.FindAttr(policy_el, "when");
        when != nullptr) {
      rule.condition_text = *when;
      OBISWAP_ASSIGN_OR_RETURN(rule.condition, ParseExpr(rule.condition_text));
    }
    const uint32_t action_el = doc.FindChild(policy_el, "action");
    if (action_el == 0)
      return InvalidArgumentError("policy '" + rule.name +
                                  "' has no <action>");
    OBISWAP_ASSIGN_OR_RETURN(rule.action, doc.GetAttr(action_el, "name"));
    for (uint32_t param_el = doc.FindChild(action_el, "param"); param_el != 0;
         param_el = doc.FindSibling(param_el, "param")) {
      OBISWAP_ASSIGN_OR_RETURN(std::string_view key,
                               doc.GetAttr(param_el, "name"));
      OBISWAP_ASSIGN_OR_RETURN(std::string_view value,
                               doc.GetAttr(param_el, "value"));
      rule.params[std::string(key)] = value;
    }
    OBISWAP_RETURN_IF_ERROR(AddRule(std::move(rule)));
    ++added;
  }
  return added;
}

void PolicyEngine::OnEvent(const context::Event& event) {
  for (const PolicyRule& rule : rules_) {
    if (rule.on_event != event.type()) continue;
    ++stats_.rules_evaluated;
    if (rule.condition != nullptr) {
      Result<double> value = rule.condition->Eval(props_);
      if (!value.ok()) {
        ++stats_.condition_errors;
        OBISWAP_LOG(kWarn) << "policy '" << rule.name
                           << "' condition error: "
                           << value.status().ToString();
        continue;
      }
      if (*value == 0.0) {
        ++stats_.conditions_false;
        continue;
      }
    }
    auto it = actions_.find(rule.action);
    OBISWAP_CHECK(it != actions_.end());  // enforced by AddRule
    ++stats_.actions_fired;
    Status status = it->second(event, rule.params);
    if (!status.ok()) {
      ++stats_.action_failures;
      OBISWAP_LOG(kWarn) << "policy '" << rule.name << "' action '"
                         << rule.action << "' failed: " << status.ToString();
    }
  }
}

}  // namespace obiswap::policy
