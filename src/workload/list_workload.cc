#include "workload/list_workload.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>

namespace obiswap::workload {

using runtime::Args;
using runtime::ClassBuilder;
using runtime::ClassInfo;
using runtime::LocalScope;
using runtime::Object;
using runtime::Selector;
using runtime::Value;
using runtime::ValueKind;

const ClassInfo* RegisterNodeClass(runtime::Runtime& rt) {
  static const Selector kStep("step");
  static const Selector kProbe("probe");
  static const Selector kWalk("walk");
  return *rt.types().Register(
      ClassBuilder("Node")
          .Field("next", ValueKind::kRef)
          .Field("value", ValueKind::kInt)
          .PayloadBytes(64)
          .Method("next",
                  [](runtime::Runtime& r, Object* self, Args) {
                    return Result<Value>(r.GetFieldAt(self, 0));
                  })
          .Method("get_value",
                  [](runtime::Runtime& r, Object* self, Args) {
                    return Result<Value>(r.GetFieldAt(self, 1));
                  })
          .Method("set_value",
                  [](runtime::Runtime& r, Object* self,
                     Args args) -> Result<Value> {
                    OBISWAP_RETURN_IF_ERROR(r.SetFieldAt(self, 1, args[0]));
                    return Value::Nil();
                  })
          .Method("step",
                  [](runtime::Runtime& r, Object* self,
                     Args args) -> Result<Value> {
                    int64_t depth = args.empty() ? 0 : args[0].as_int();
                    const Value& next = r.GetFieldAt(self, 0);
                    if (!next.is_ref() || next.ref() == nullptr)
                      return Value::Int(depth);
                    return r.Invoke(next.ref(), kStep,
                                    {Value::Int(depth + 1)});
                  })
          .Method("probe",
                  [](runtime::Runtime& r, Object* self,
                     Args args) -> Result<Value> {
                    int64_t remaining = args.empty() ? 0 : args[0].as_int();
                    const Value& next = r.GetFieldAt(self, 0);
                    if (remaining <= 0 || !next.is_ref() ||
                        next.ref() == nullptr)
                      return Value::Ref(self);
                    return r.Invoke(next.ref(), kProbe,
                                    {Value::Int(remaining - 1)});
                  })
          .Method("walk",
                  [](runtime::Runtime& r, Object* self,
                     Args args) -> Result<Value> {
                    int64_t depth = args.empty() ? 0 : args[0].as_int();
                    // Inner recursion: reference returned and discarded
                    // ("the swap-cluster-proxy is later reclaimed by the
                    // LGC when the outer recursion advances").
                    OBISWAP_ASSIGN_OR_RETURN(
                        Value reached,
                        r.Invoke(self, kProbe, {Value::Int(10)}));
                    (void)reached;
                    const Value& next = r.GetFieldAt(self, 0);
                    if (!next.is_ref() || next.ref() == nullptr)
                      return Value::Int(depth);
                    return r.Invoke(next.ref(), kWalk,
                                    {Value::Int(depth + 1)});
                  }));
}

std::vector<SwapClusterId> BuildList(runtime::Runtime& rt,
                                     swap::SwappingManager* manager,
                                     const ClassInfo* node_cls, int n,
                                     int per_cluster,
                                     const std::string& global) {
  std::vector<SwapClusterId> clusters;
  if (manager != nullptr) {
    int cluster_count = (n + per_cluster - 1) / per_cluster;
    for (int i = 0; i < cluster_count; ++i)
      clusters.push_back(manager->NewSwapCluster());
  }
  LocalScope scope(rt.heap());
  Object** head = scope.Add(nullptr);
  for (int i = n - 1; i >= 0; --i) {
    Object* node = rt.New(node_cls);
    if (manager != nullptr) {
      OBISWAP_CHECK(manager->Place(node, clusters[i / per_cluster]).ok());
    }
    OBISWAP_CHECK(rt.SetField(node, "value", Value::Int(i)).ok());
    if (*head != nullptr) {
      OBISWAP_CHECK(rt.SetField(node, "next", Value::Ref(*head)).ok());
    }
    *head = node;
  }
  OBISWAP_CHECK(rt.SetGlobal(global, Value::Ref(*head)).ok());
  return clusters;
}

namespace {
void* ThreadTrampoline(void* arg) {
  auto* body = static_cast<const std::function<void()>*>(arg);
  (*body)();
  return nullptr;
}
}  // namespace

void RunWithBigStack(const std::function<void()>& body, size_t stack_bytes) {
  pthread_attr_t attr;
  OBISWAP_CHECK(pthread_attr_init(&attr) == 0);
  OBISWAP_CHECK(pthread_attr_setstacksize(&attr, stack_bytes) == 0);
  pthread_t thread;
  OBISWAP_CHECK(pthread_create(&thread, &attr, ThreadTrampoline,
                               const_cast<std::function<void()>*>(&body)) ==
                0);
  pthread_attr_destroy(&attr);
  OBISWAP_CHECK(pthread_join(thread, nullptr) == 0);
}

double TimeMs(const std::function<void()>& body) {
  auto start = std::chrono::steady_clock::now();
  body();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double MedianTimeMs(int reps, const std::function<void()>& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) samples.push_back(TimeMs(body));
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace obiswap::workload
